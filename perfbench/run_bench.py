"""Benchmark of qempar: host time, set-up time and memory of whole batches of
simulations, with a separate traced pass that times each layer.

Run from the repository root:

    python3 perfbench/run_bench.py --workload loaded_loop --seed 1 --seconds 55 --trace 0

A workload is a grid of cells (router x seed) over one base
scenario; its simulation seeds are drawn from --seed. Cells run in a closed
loop: the next cell starts only when the previous one has returned.

--trace 0 reports the end-to-end metrics of the full batch:
  setup_s      host seconds from a validated config to the first traffic
               event (place_nodes, NetworkState plus beacon_exchange, then
               discover_paths or minhop_paths, called here directly),
               summed over the cells;
  run_s        host seconds of the batch at jobs 1, one compare() call per
               cell (engine.run with an event-log file on logged
               workloads), summed over the cells;
  peak_mem_mb  largest tracemalloc peak of one cell of the trace batch.
--trace 1 reports per-layer metrics of the smaller trace batch: one pass with
layer wrappers installed, one counting pass whose event log goes to a line
counter, then untraced rounds at jobs 1, cell by cell, and at jobs 2, one
pool per seed. Spans go to perfbench/out/.

The memory pass or the traced and counting passes come first. Then come
rounds: each round sets up and runs every cell once, and each set-up or run
is timed on its own. Rounds repeat, at least MIN_ROUNDS of
them, while the next one is expected to end within --seconds. Each figure is
the least time of its unit over the rounds, summed over the units: other
load on the host only ever adds time, and a pause of the host drops out
unless it hit that unit in every round.

Every cell is checked: packets must settle, the energy ledger must balance,
jobs 1 and jobs 2 must agree, the set-up replica must find the same number of
paths as the run, and at the default seed the batch digest must equal the one
in perfbench/reference.json. Jobs 1 and jobs 2 run, and are compared, in the
traced run. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import multiprocessing
import os
import random
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

if not (SRC / "qempar" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no qempar sources under {SRC}")
sys.path.insert(0, str(SRC))

import qempar  # noqa: E402
from qempar import (NetworkState, ScenarioConfig, beacon_exchange,  # noqa: E402
                    discover_paths, engine, minhop_paths, place_nodes)
from qempar.engine import Event  # noqa: E402
from qempar.errors import NoPathError  # noqa: E402

from tracer import LAYERS, RUN, Tracer  # noqa: E402

if not Path(qempar.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: qempar imported from {qempar.__file__}, not {SRC}")

DEFAULT_SEED = 1
ROUTERS = ("qempar", "minhop")
MIN_ROUNDS = 2
LEDGER_REL_TOL = 1e-12  # as in tests/test_acceptance.py


@dataclass(frozen=True)
class Workload:
    """A grid of cells (router x seed) over one base scenario.

    n_seeds simulation seeds make the full batch and the first trace_seeds
    of them the trace batch, which the traced and memory passes run.
    logged cells write their event log to a file.
    """

    name: str
    config: ScenarioConfig
    n_seeds: int
    trace_seeds: int
    logged: bool = False

    def tiny(self) -> "Workload":
        """The same grid shape at smoke-test size."""
        cfg = replace(self.config, duration_s=1.0,
                      node_count=min(self.config.node_count, 150))
        return replace(self, config=cfg, n_seeds=1, trace_seeds=1)


# Both fields are small. Placement builds a list of node pairs, and on larger
# fields it is bound by memory: on a shared host its time then swings by up
# to 1.6x for minutes at a time with other tenants' cache use, which no
# repeat within a run removes.
WORKLOADS = {w.name: w for w in [
    # The default field under heavy load: the event loop is nearly all of
    # the time and carrier sense a large part of it. Many short runs rather
    # than a few long ones: the path length, and with it a cell's run time,
    # varies between seeds with a coefficient of variation of about 0.3, and
    # only many seeds make batches of different benchmark seeds comparable.
    Workload("loaded_loop", ScenarioConfig(duration_s=5.0, rate_pkts_per_s=50.0),
             n_seeds=64, trace_seeds=2),
    # A dense field, 150 nodes at the density of 300 in the default square,
    # with the source three quarters of the way across as by default:
    # qempar finds several disjoint paths on about half the seeds. Every
    # event is serialised to a log file.
    Workload("logged_dense", ScenarioConfig(
        node_count=150, field_width=282.8, field_height=282.8,
        source_x=212.1, source_y=212.1, duration_s=10.0, rate_pkts_per_s=30.0),
        n_seeds=24, trace_seeds=1, logged=True),
]}


def sim_seeds(seed: int, n: int) -> list[int]:
    """n distinct simulation seeds drawn from the benchmark seed."""
    return random.Random(seed).sample(range(1, 2**31), n)


def grid(w: Workload, seeds, routers=ROUTERS) -> list[tuple[tuple, ScenarioConfig, int]]:
    """(key, config, seed) for every cell, in compare()'s order."""
    rate = float(w.config.rate_pkts_per_s)
    return [((rate, rt, s), replace(w.config, rate_pkts_per_s=rate, router=rt), s)
            for rt in routers for s in seeds]


def setup_once(config: ScenarioConfig, seed: int) -> int:
    """What run() does between a validated config and its first event;
    returns the number of paths found, 0 where run() reports no route."""
    topo = place_nodes(config, seed)
    state = NetworkState(topo, config.radio_params(), config)
    state.ledger.keep_entries = False
    beacon_exchange(state)
    qempar_router = config.router == "qempar"
    find = discover_paths if qempar_router else minhop_paths
    try:
        return len(find(topo.source_id, topo.sink_id,
                        config.fragment_count if qempar_router else 1, state))
    except NoPathError:
        return 0


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _logged_cell(task) -> tuple:
    key, config, seed, path = task
    try:
        metrics = engine.run(config, seed, event_log=path)
        return key, metrics, _file_digest(path)
    finally:
        if os.path.exists(path):
            os.remove(path)


def run_cell(w: Workload, key, config: ScenarioConfig, seed: int) -> tuple:
    """One cell on its own, as run_batch runs it: (RunMetrics, log digest)."""
    if w.logged:
        return _logged_cell((key, config, seed, str(OUT / f"cell-{os.getpid()}.jsonl")))[1:]
    return engine.run(config, seed), None


def run_batch(w: Workload, seeds, jobs: int, routers=ROUTERS) -> dict:
    """Run every cell once; returns {key: (RunMetrics, log digest)}, the
    digest being the sha256 of the event-log bytes on logged workloads and
    None otherwise."""
    if not w.logged:
        cells = engine.compare(w.config, [w.config.rate_pkts_per_s], seeds, routers, jobs=jobs)
        return {key: (m, None) for key, m in cells.items()}
    if jobs == 1:
        return {key: run_cell(w, key, cfg, s) for key, cfg, s in grid(w, seeds, routers)}
    tasks = [(key, cfg, s, str(OUT / f"log-{os.getpid()}-{i}.jsonl"))
             for i, (key, cfg, s) in enumerate(grid(w, seeds, routers))]
    # The default context, as compare() uses, so that jobs 2 means the same
    # pool on every workload.
    with multiprocessing.Pool(jobs) as pool:
        return {key: (m, digest) for key, m, digest in pool.map(_logged_cell, tasks)}


def metrics_json(metrics) -> str:
    return json.dumps(metrics.to_dict(), sort_keys=True)


def fingerprint(metrics, log_digest) -> str:
    text = metrics_json(metrics)
    return text if log_digest is None else f"{text}\n{log_digest}"


def batch_digest(results: dict) -> str:
    """sha256 over the cells' fingerprints in key order."""
    text = "\n".join(fingerprint(*results[k]) for k in sorted(results))
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Correctness of every cell the benchmark runs; counts attempted and
    failed cells and keeps the first few reasons for standard error."""

    def __init__(self, w: Workload, reference_digest: str | None):
        self.w = w
        self.reference_digest = reference_digest
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.first: dict = {}    # key -> (metrics JSON, log digest) of the first result
        self.n_paths: dict = {}  # key -> paths found by the set-up replica
        self.bad: set = set()    # keys of cells whose results failed a check

    def fail(self, keys, reason: str) -> None:
        self.failed += len(keys)
        if len(self.reasons) < 20:
            self.reasons.append(f"{reason}: {len(keys)} cell(s), e.g. {sorted(keys)[:1]}")

    def attempt(self, label: str, keys: list, fn):
        """Call fn(); a raise fails every cell it covered."""
        self.attempted += len(keys)
        try:
            return fn()
        except Exception:  # a failing cell is counted, the benchmark goes on
            traceback.print_exc(file=sys.stderr)
            self.fail(keys, f"{label} raised")
            return None

    def _same_as_first(self, key, metrics, log_digest) -> bool:
        """Metrics must repeat exactly; log digests are compared when both
        passes hashed the log."""
        text = metrics_json(metrics)
        first_text, first_log = self.first.setdefault(key, (text, log_digest))
        return text == first_text and (None in (log_digest, first_log) or log_digest == first_log)

    def results(self, label: str, results: dict) -> None:
        """Check one pass's {key: (metrics, log digest)}."""
        cfg = self.w.config
        budget = cfg.node_count * cfg.initial_energy_j
        # Each node's residual is rounded to the precision of its initial
        # energy, so budget - residual carries up to that much round-off per
        # node however little was spent; on a large, lightly loaded field it
        # exceeds 1e-12 of the ledger.
        round_off = cfg.node_count * math.ulp(cfg.initial_energy_j) + math.ulp(budget)
        for key, (m, log_digest) in results.items():
            drained = budget - m.residual_total_j
            tolerance = LEDGER_REL_TOL * abs(m.ledger_total_j) + round_off
            if m.generated != m.delivered + m.expired + m.dropped:
                self.fail([key], f"{label}: packets do not settle")
            elif not abs(drained - m.ledger_total_j) <= tolerance:
                self.fail([key], f"{label}: energy ledger does not balance")
            elif key in self.n_paths and self.n_paths[key] != m.n_paths:
                self.fail([key], f"{label}: set-up found {self.n_paths[key]} paths, run {m.n_paths}")
            elif not self._same_as_first(key, m, log_digest):
                self.fail([key], f"{label}: result differs from the first pass")
            else:
                continue
            self.bad.add(key)

    def reference(self, label: str, results: dict) -> None:
        """Compare a whole batch with the reference digest, when there is
        one; cells that already failed are not counted again."""
        if self.reference_digest is not None and batch_digest(results) != self.reference_digest:
            self.fail(sorted(results.keys() - self.bad), f"{label}: digest differs from reference")


def timed_rounds(units: list, deadline: float, checks: Checks) -> tuple[list, list]:
    """Time each unit once per round, at least MIN_ROUNDS rounds and then
    while the next round is expected to end by `deadline`.

    A unit is (label, keys, fn, check): fn() is timed, and check(result) is
    called untimed on what it returned unless it raised. Garbage is
    collected, untimed, before each unit: placement allocates a tuple per
    node pair, and which unit the collector's passes then fall in would
    otherwise vary between rounds. Returns each unit's least seconds and
    last result.
    """
    times = [[] for _ in units]
    last = [None] * len(units)
    rounds, round_s = 0, 0.0
    while rounds < MIN_ROUNDS or perf_counter() + round_s <= deadline:
        t_round = perf_counter()
        for i, (label, keys, fn, check) in enumerate(units):
            gc.collect()
            t0 = perf_counter()
            last[i] = checks.attempt(label, keys, fn)
            times[i].append(perf_counter() - t0)
            if last[i] is not None:
                check(last[i])
        rounds += 1
        round_s = perf_counter() - t_round
    print(f"perfbench: {rounds} rounds of {len(units)} timed units, the last {round_s:.2f} s",
          file=sys.stderr)
    return [min(t) for t in times], last


def setup_unit(checks: Checks, key, config: ScenarioConfig, seed: int) -> tuple:
    def keep_paths(n_paths):
        checks.n_paths[key] = n_paths
    return "set-up", [key], lambda: setup_once(config, seed), keep_paths


def run_unit(w: Workload, checks: Checks, seed: int, jobs: int, routers=ROUTERS) -> tuple:
    """The cells of one seed at `jobs`, checked."""
    keys = [key for key, _, _ in grid(w, [seed], routers)]
    return (f"jobs {jobs}", keys, lambda: run_batch(w, [seed], jobs, routers),
            lambda results: checks.results(f"jobs {jobs}", results))


def merged(results) -> dict:
    return {key: cell for part in results if part is not None for key, cell in part.items()}


def memory_pass(w: Workload, seeds, checks: Checks) -> float:
    """Largest tracemalloc peak, in MB, of one cell of the trace batch.

    Cells run one at a time with the previous cell's garbage collected, so
    the figure does not depend on when the collector last ran.
    """
    peak = 0
    tracemalloc.start()
    try:
        for key, cfg, s in grid(w, seeds[:w.trace_seeds]):
            gc.collect()
            tracemalloc.reset_peak()
            result = checks.attempt("memory", [key], lambda: run_cell(w, key, cfg, s))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            if result is not None:
                checks.results("memory", {key: result})
    finally:
        tracemalloc.stop()
    return peak / 1e6


class LogCounter:
    """Event-log sink that counts lines and characters and times its writes;
    forwards to a file when given a path, so logged workloads keep their
    write cost."""

    def __init__(self, path: str | None):
        self.path = path
        self.file = open(path, "w", encoding="utf-8") if path else None
        self.lines = 0
        self.chars = 0
        self.seconds = 0.0

    def write(self, text: str) -> None:
        t0 = perf_counter()
        if self.file is not None:
            self.file.write(text)
        self.seconds += perf_counter() - t0
        self.lines += 1
        self.chars += len(text)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()
            os.remove(self.path)


def _count_kind(tracer, args, _result) -> None:
    tracer.counts[args[0].kind] += 1


def counting_pass(w: Workload, seeds, checks: Checks) -> tuple[Tracer, list[LogCounter]]:
    """Every cell once with its event log sent to a LogCounter and
    Event.to_json timed and counted by kind. Kept out of the timed passes:
    serialising every event triples the loop's time."""
    logs = []
    with Tracer() as tracer:
        tracer.wrap(Event, "to_json", "engine.to_json", observe=_count_kind)
        for key, cfg, s in grid(w, seeds):
            log = LogCounter(str(OUT / f"count-{os.getpid()}.jsonl") if w.logged else None)
            logs.append(log)
            try:
                m = checks.attempt("counting", [key], lambda: engine.run(cfg, s, event_log=log))
            finally:
                log.close()
            if m is not None:
                checks.results("counting", {key: (m, None)})
    return tracer, logs


def end_to_end(w: Workload, seed: int, start: float, seconds: float, checks: Checks) -> dict:
    seeds = sim_seeds(seed, w.n_seeds)
    peak_mb = memory_pass(w, seeds, checks)
    units = []
    for key, cfg, s in grid(w, seeds):
        units += [setup_unit(checks, key, cfg, s), run_unit(w, checks, s, 1, (cfg.router,))]
    least, last = timed_rounds(units, start + seconds, checks)
    is_setup = [label == "set-up" for label, _, _, _ in units]
    results = merged(r for r, setup in zip(last, is_setup) if not setup)
    if len(results) == len(grid(w, seeds)):
        checks.reference("jobs 1", results)
    return {"setup_s": (sum(t for t, setup in zip(least, is_setup) if setup), "s"),
            "run_s": (sum(t for t, setup in zip(least, is_setup) if not setup), "s"),
            "peak_mem_mb": (peak_mb, "MB")}


def per_layer(w: Workload, seed: int, start: float, seconds: float, checks: Checks) -> dict:
    seeds = sim_seeds(seed, w.n_seeds)[:w.trace_seeds]
    wrapper_s = Tracer.wrapper_cost()
    gc.collect()
    with Tracer.layers() as tracer:
        t0 = perf_counter()
        traced = checks.attempt("traced", [k for k, _, _ in grid(w, seeds)],
                                lambda: run_batch(w, seeds, 1))
        traced_s = perf_counter() - t0
    if traced is not None:
        checks.results("traced", traced)
    counter, logs = counting_pass(w, seeds, checks)
    cells = grid(w, seeds)
    least, last = timed_rounds([run_unit(w, checks, s, 1, (cfg.router,)) for _, cfg, s in cells]
                               + [run_unit(w, checks, s, 2) for s in seeds],
                               start + seconds, checks)
    run_s, run_s_jobs2 = sum(least[:len(cells)]), sum(least[len(cells):])
    results = merged(last[:len(cells)])
    if len(results) == len(cells):
        checks.reference("jobs 1", results)

    expected = [RUN] + [name for _, _, name, _, _ in LAYERS
                        if name != "engine.to_json" or w.logged]
    warnings = [f"layer {name} recorded no calls" for name in expected
                if tracer.calls(name) == 0]
    for text in warnings:
        print(f"perfbench: warning: {text}", file=sys.stderr)
    trace_file = OUT / f"trace-{w.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({**tracer.to_dict(), "warnings": warnings}) + "\n")
    print(f"perfbench: spans written to {trace_file}", file=sys.stderr)

    t, events = tracer, sum(log.lines for log in logs)
    generated = sum(m.generated for m, _ in results.values())
    delivered = sum(m.delivered for m, _ in results.values())
    hop_starts = counter.counts["hop-start"]
    return {
        "topology.place_nodes_s": (t.seconds("topology.place_nodes"), "s"),
        "topology.bridges": (t.counts["topology.bridges"], "count"),
        "topology.neighbors_calls": (t.calls("topology.neighbors"), "count"),
        "routing.beacon_exchange_s": (t.seconds("routing.beacon_exchange"), "s"),
        "routing.discover_s": (t.seconds("routing.discover_paths", "routing.minhop_paths"), "s"),
        "routing.paths": (t.counts["routing.paths"], "count"),
        "link_metrics.carrier_sense_calls": (t.calls("link_metrics.carrier_sense"), "count"),
        "link_metrics.carrier_sense_s": (t.seconds("link_metrics.carrier_sense"), "s"),
        "link_metrics.record_calls": (t.calls("link_metrics.record_send",
                                              "link_metrics.record_receive"), "count"),
        "link_metrics.record_s": (t.seconds("link_metrics.record_send",
                                            "link_metrics.record_receive"), "s"),
        "link_metrics.suitability_calls": (t.calls("link_metrics.suitability"), "count"),
        "link_metrics.suitability_s": (t.seconds("link_metrics.suitability"), "s"),
        "energy.ledger_adds": (t.calls("energy.ledger_add"), "count"),
        "energy.ledger_add_s": (t.seconds("energy.ledger_add"), "s"),
        "dispatch.reassemble_calls": (t.calls("dispatch.reassemble"), "count"),
        "dispatch.reassemble_s": (t.seconds("dispatch.reassemble"), "s"),
        "dispatch.delivered_ratio": (delivered / generated, "ratio"),
        # Less the wrappers' own cost, which falls outside the child spans.
        "engine.self_s": (t.self_seconds(RUN) - t.child_calls(RUN) * wrapper_s, "s"),
        "engine.events": (events, "count"),
        "engine.events_per_s": (events / run_s, "1/s"),
        "engine.hop_attempts": (hop_starts, "count"),
        "engine.hop_success_ratio": (counter.counts["hop-complete"] / hop_starts, "ratio"),
        "engine.log_s": (counter.seconds("engine.to_json")
                         + sum(log.seconds for log in logs), "s"),
        "engine.log_mb": (sum(log.chars for log in logs) / 1e6, "MB"),
        "engine.parallel_efficiency": (run_s / (2 * run_s_jobs2), "ratio"),
        "tracing_overhead_s": (traced_s - run_s, "s"),
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            reference_digest: str | None = None) -> dict:
    """One benchmark run; returns the result object printed by main()."""
    start = perf_counter()
    OUT.mkdir(exist_ok=True)
    checks = Checks(w, reference_digest)
    # Objects that live through the run are left out of the collections
    # made before each timed unit, so those cost next to nothing.
    gc.collect()
    gc.freeze()
    try:
        metrics = (per_layer if trace else end_to_end)(w, seed, start, seconds, checks)
    finally:
        gc.unfreeze()
    for reason in checks.reasons:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def reference_digest(name: str, trace: bool) -> str:
    entry = json.loads(REFERENCE.read_text())["workloads"][name]
    return entry["trace_digest" if trace else "digest"]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    digest = reference_digest(args.workload, bool(args.trace)) if args.seed == DEFAULT_SEED else None
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), digest)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
