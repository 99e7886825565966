"""Command-line front end: run one scenario, sweep rates and seeds, or
validate a configuration.

Every invocation prints the fully resolved configuration with the source of
each value (default, file, or override) so results are attributable to an
exact scenario. Exit codes: 0 success, 1 runtime failure, 2 configuration or
usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import replace

from .config import load_config
from .engine import compare, run
from .errors import ConfigError
from .report import aggregate, emit_report


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="scenario file (key = value lines)")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="overrides", help="override one setting (repeatable)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qempar",
        description="QoS- and energy-aware multi-path routing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    _add_common(p_run)
    p_run.add_argument("--seed", type=int, help="placement seed")
    p_run.add_argument("--rate", type=float, help="packet arrival rate, packets/s")
    p_run.add_argument("--router", choices=["qempar", "minhop", "both"],
                       help="which router to run (default: from config)")
    p_run.add_argument("--format", choices=["csv", "json"], default="csv",
                       help="report format (default: csv)")
    p_run.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    p_run.add_argument("--event-log", metavar="PATH",
                       help="write one JSON line per simulation event")

    p_sweep = sub.add_parser("sweep", help="simulate a grid of rates and seeds")
    _add_common(p_sweep)
    p_sweep.add_argument("--rates", default="5,10,15,20,25,30,35,40,45,50",
                         help="comma-separated packet rates (default: 5..50 step 5)")
    p_sweep.add_argument("--seeds", default="1..10",
                         help="seeds as N..M or a comma list (default: 1..10)")
    p_sweep.add_argument("--router", choices=["qempar", "minhop", "both"],
                         help="router(s) to sweep (default: both, unless set by --config or --set)")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv",
                         help="report format (default: csv)")
    p_sweep.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default: 1; results independent of this)")

    p_val = sub.add_parser("validate", help="check a configuration and show derived values")
    _add_common(p_val)
    return parser


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got '{pair}'")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key in overrides:
            raise ConfigError(f"--set {key} given more than once")
        overrides[key] = value.strip()
    return overrides


def _resolve_config(args, extra: dict | None = None):
    """Config from --config and --set, with extra holding the values of
    dedicated flags (None: the flag claims the key but sets no value); a
    flag and a --set of the same key conflict."""
    overrides = _parse_overrides(args.overrides)
    if extra:
        both = sorted(overrides.keys() & extra.keys())
        if both:
            raise ConfigError(f"{', '.join(both)} given both by a flag and by --set")
        overrides.update((k, v) for k, v in extra.items() if v is not None)
    return load_config(args.config, overrides)


def _router_extra(args) -> dict:
    """--router as a flag value for _resolve_config; "both" runs each router
    in turn, so it claims the key but sets no single value."""
    if args.router is None:
        return {}
    return {"router": None if args.router == "both" else args.router}


def _print_config(config, provenance) -> None:
    print("# resolved configuration")
    for line in config.to_text().splitlines():
        key = line.split(" = ")[0]
        print(f"{line}  [{provenance[key]}]")
    print()


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad seed list '{text}'") from None
    if not seeds:
        raise ConfigError("seed list is empty")
    return seeds


def _parse_rates(text: str) -> list[float]:
    try:
        rates = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad rate list '{text}'") from None
    if not rates:
        raise ConfigError("rate list is empty")
    return rates


def _check_writable(*paths: str | None) -> None:
    """Raise ConfigError unless each given path can be opened for writing,
    no two naming the same file. Made before any cell runs; it truncates no
    existing file and leaves no new one."""
    given = [path for path in paths if path is not None]
    if len({os.path.realpath(path) for path in given}) < len(given):
        raise ConfigError(f"cannot write {given[-1]}: two outputs name the same file")
    for path in given:
        existed = os.path.exists(path)
        try:
            with open(path, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from None
        if not existed:
            os.remove(path)


def _deliver_report(rows, fmt: str, out: str | None) -> None:
    text = emit_report(rows, fmt)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {out}")
    else:
        print(text, end="")


def _cmd_run(args) -> int:
    extra = _router_extra(args)
    if args.seed is not None:
        extra["seed"] = args.seed
    if args.rate is not None:
        extra["rate_pkts_per_s"] = args.rate
    config, provenance = _resolve_config(args, extra)
    _print_config(config, provenance)
    routers = ["qempar", "minhop"] if args.router == "both" else [config.router]
    if args.event_log and len(routers) > 1:
        raise ConfigError("--event-log needs a single router, not 'both'")
    _check_writable(args.out, args.event_log)
    cells = {}
    for router in routers:
        cfg = replace(config, router=router)
        metrics = run(cfg, config.seed, event_log=args.event_log)
        cells[(cfg.rate_pkts_per_s, router, config.seed)] = metrics
        delay = "-" if metrics.mean_delay_s is None else f"{metrics.mean_delay_s:.6f}"
        energy = "-" if metrics.mean_energy_j is None else f"{metrics.mean_energy_j:.9f}"
        print(f"{router}: paths={metrics.n_paths} hops={list(metrics.path_hops)} "
              f"delivered={metrics.delivered}/{metrics.generated} "
              f"delay_s={delay} energy_j={energy}")
    print()
    _deliver_report(aggregate(cells), args.format, args.out)
    return 0


def _cmd_sweep(args) -> int:
    config, provenance = _resolve_config(args, _router_extra(args))
    _print_config(config, provenance)
    rates = _parse_rates(args.rates)
    seeds = _parse_seeds(args.seeds)
    # Without --router, a router named by the config file or --set is swept alone.
    both = args.router == "both" or (args.router is None and provenance["router"] == "default")
    routers = ("qempar", "minhop") if both else (config.router,)
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    _check_writable(args.out)
    cells = compare(config, rates, seeds, routers=routers, jobs=args.jobs)
    _deliver_report(aggregate(cells), args.format, args.out)
    return 0


def _cmd_validate(args) -> int:
    config, provenance = _resolve_config(args)
    _print_config(config, provenance)
    d0 = config.radio_params().d0
    print("configuration is valid")
    print(f"amplifier threshold distance d0 = {d0:.6f} m")
    print(f"packet size = {config.packet_bits} bits "
          f"in {config.fragments_per_packet} fragment(s)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(traceback.format_exc(), end="", file=sys.stderr)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
