"""Maintenance commands for the benchmark, run from the repository root.

    python3 perfbench/record.py reference
        Rerun every workload's batch at the default seed and rewrite the
        digests and per-cell statistics in perfbench/reference.json. Do this
        only in a change that means to alter simulated behaviour.

    python3 perfbench/record.py baseline
        Run the benchmark command once per seed 1..10 and workload with
        tracing off, twice over (two sets), then once per workload with
        tracing on at the default seed, and write perfbench/baseline.json:
        each end-to-end metric's values, median, quartiles and spread
        (quartile distance over median) per set next to its bound, the
        change of the median from the first set to the second, and the
        layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run_bench as rb

ROOT = rb.HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = rb.HERE / "baseline.json"
SEEDS = list(range(1, 11))
SETS = 2


def record_reference() -> None:
    ref = json.loads(rb.REFERENCE.read_text())
    rb.OUT.mkdir(exist_ok=True)
    for name, w in rb.WORKLOADS.items():
        seeds = rb.sim_seeds(rb.DEFAULT_SEED, w.n_seeds)
        results = rb.run_batch(w, seeds, jobs=1)
        trace_seeds = set(seeds[:w.trace_seeds])
        entry = ref["workloads"].setdefault(name, {})
        entry["digest"] = rb.batch_digest(results)
        entry["trace_digest"] = rb.batch_digest(
            {k: v for k, v in results.items() if k[2] in trace_seeds})
        entry["cells"] = [
            {"rate": k[0], "router": k[1], "seed": k[2], "n_paths": m.n_paths,
             "delivered": m.delivered, "generated": m.generated,
             "mean_delay_s": m.mean_delay_s, "mean_energy_j": m.mean_energy_j}
            for k, (m, _) in sorted(results.items())]
        print(f"{name}: {entry['digest']}", file=sys.stderr)
    rb.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


def bench(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run as a separate process; adds its wall time."""
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(BENCHMARK["run_seconds"]),
                                  "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return {**json.loads(out.strip().splitlines()[-1]), "wall_s": time.perf_counter() - t0}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def layer_shares(metrics: dict) -> dict:
    """Each traced layer's seconds as a share of the traced batch's time.

    events_per_s is over the untraced time of the same batch, so events over
    it gives that time back; engine.log_s is left out because it comes from
    the counting pass, not the traced one.
    """
    value = {k: m["value"] for k, m in metrics.items()}
    traced_s = value["engine.events"] / value["engine.events_per_s"] + value["tracing_overhead_s"]
    return {k: value[k] / traced_s for k, m in metrics.items()
            if m["unit"] == "s" and k not in ("engine.log_s", "tracing_overhead_s")}


def record_baseline() -> None:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record = {"host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine()},
              "seeds": SEEDS, "sets": SETS,
              "workloads": {name: {"attempted": 0, "failed": 0, "wall_s": [],
                                   "end_to_end": {m: {"bound": b, "sets": []}
                                                  for m, b in bounds.items()}}
                            for name in rb.WORKLOADS}}
    for set_no in range(1, SETS + 1):
        for name, entry in record["workloads"].items():
            results = [bench(name, seed, 0) for seed in SEEDS]
            entry["attempted"] += sum(r["attempted"] for r in results)
            entry["failed"] += sum(r["failed"] for r in results)
            entry["wall_s"] += [r["wall_s"] for r in results]
            for metric, stats in entry["end_to_end"].items():
                s = summary([r["metrics"][metric]["value"] for r in results])
                stats["sets"].append(s)
                print(f"set {set_no} {name:13} {metric:12} median {s['median']:.4g}"
                      f"  spread {s['spread']:.3f}  bound {stats['bound']}", file=sys.stderr)
                if set_no > 1:
                    first = stats["sets"][0]["median"]
                    stats["median_change"] = (s["median"] - first) / first
            BASELINE.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in record["workloads"].items():
        traced = bench(name, rb.DEFAULT_SEED, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["share_of_traced_s"] = layer_shares(traced["metrics"])
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        entry["traced_wall_s"] = traced["wall_s"]
        BASELINE.write_text(json.dumps(record, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reference")
    sub.add_parser("baseline")
    args = parser.parse_args()
    if args.command == "reference":
        record_reference()
    else:
        record_baseline()


if __name__ == "__main__":
    main()
