"""Paired A/B timing and behaviour identity of the working tree against a
parent revision.

Run from the repository root:

    python3 tools/ab.py PARENT_REV [--new DIR] [--label NAME]

The parent's src/qempar is taken with `git archive` into a temporary
directory and imported as the package qempar_parent; the new side, the
working tree's src/qempar or the package directory DIR, is imported as
qempar_new. Both sides run the --seed 1 cells of the two bench workloads of
perfbench/run_bench.py, alternating cell by cell, and each cell's setup(),
discover() and simulate() are timed on their own in CPU seconds
(time.process_time), the least of REPEATS runs per side, and so is the
cell's whole run(), the call the bench's run_s times. A logged workload
writes each event log to a file: simulate() to one this tool opens, run()
to a path it is given, as the bench does, so that run()'s own way of
writing a log is timed too.

The timing is repeated in RUNS separate processes, one after another, so
that a drift that one whole process shares (its memory layout, a slow
stretch of the host) shows as a difference between runs. Which side is
imported first alternates by run, so that what the import order does to
identical code (where its objects lie in memory) differs between runs
rather than biasing all of them: with the parent always imported first,
the parent against itself read one phase below 1.0 in all three runs.

For each workload and phase the report gives the median new/parent time
ratio over the cells of every run, a seeded two-stage bootstrap 95%
interval of that median (runs resampled, then cells within each run:
Davison & Hinkley, Bootstrap Methods and their Application, 1997, section
3.8), each run's own median and their spread (largest less smallest), and
how many of the cell pairs the new side won. Every cell must give both
sides equal paths, equal RunMetrics.to_dict() and equal event-log bytes,
and its whole run() the metrics and log of its phases; and so must, untimed,
each of the five pinned cases of tests/test_byte_identity.py, DRAWN configs
drawn like tests/conftest.py::valid_configs() (hypothesis, derandomized, so
the same ones on every run) and the DYING cells, where nodes die under
load. The first case that differs stops the run, named with its first
differing log line. The report goes under "runs", keyed by --label, into
BENCH_<short parent rev>.json at the repository root, so that runs of
several new sides against one parent share a file: the parent's own
src/qempar as the new side (--new) is the self-test.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib.util
import io
import json
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import run_bench  # noqa: E402  (read only: the workloads and their cells)
import test_byte_identity as pinned  # noqa: E402

PINNED = [(pinned.DENSE_QEMPAR, 7), (pinned.DEFAULT_MINHOP, 1), (pinned.DENSE_LITERAL, 7),
          (pinned.DEFAULT_TIES, 16), (pinned.EXPIRING, 16)]
DRAWN = 200
PHASES = ("setup", "discover", "simulate", "run")
REPEATS = 3
RUNS = 3
BOOTSTRAP = 2000


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def load(package_dir: Path, name: str):
    """The package in package_dir imported as name; every import inside
    src/qempar is relative, so a renamed copy imports cleanly."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def extract(rev: str, dest: Path) -> Path:
    """rev's src/qempar written under dest; returns the package directory."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, "src/qempar"))) as tar:
        for member in tar.getmembers():
            if member.isfile():
                path = dest / member.name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())
    return dest / "src" / "qempar"


class Side:
    """One revision of the package: runs a cell, timed by phase."""

    def __init__(self, package, log_path: Path):
        self.package = package
        self.log_path = log_path

    def config(self, config):
        """config as this side's ScenarioConfig."""
        return self.package.ScenarioConfig(**dataclasses.asdict(config))

    def cell(self, config, seed: int, logged: bool) -> tuple[dict, tuple[str, bytes]]:
        """({phase: CPU seconds}, (fingerprint of paths, metrics and log, log)).
        The cell's whole run() must give the metrics and log of its phases."""
        engine = self.package.engine
        config = dataclasses.replace(self.config(config), seed=seed)
        config.validate()
        gc.collect()
        with (open(self.log_path, "w", encoding="utf-8", newline="\n") if logged
              else nullcontext()) as log:
            t0 = process_time()
            state = engine.setup(config)
            t1 = process_time()
            paths = engine.discover(state)
            t2 = process_time()
            metrics = engine.simulate(state, paths, log)
            t3 = process_time()
        text = self.log_path.read_bytes() if logged else b""
        gc.collect()
        t4 = process_time()
        whole = engine.run(config, seed, event_log=str(self.log_path) if logged else None)
        t5 = process_time()
        if (whole.to_dict(), self.log_path.read_bytes() if logged else b"") != (
                metrics.to_dict(), text):
            raise SystemExit(f"ab: run() and its phases differ on seed {seed}: {config}")
        return ({"setup": t1 - t0, "discover": t2 - t1, "simulate": t3 - t2, "run": t5 - t4},
                (fingerprint(paths, metrics, text), text))

    def pinned(self, config, seed: int) -> tuple[str, bytes]:
        """(fingerprint of run(config, seed) with its event log, log)."""
        log = io.StringIO()
        metrics = self.package.run(self.config(config), seed, event_log=log)
        text = log.getvalue().encode()
        return fingerprint(None, metrics, text), text


def fingerprint(paths, metrics, log: bytes) -> str:
    found = None if paths is None else [(p.node_ids, p.merit.hex()) for p in paths]
    return json.dumps({"paths": found, "metrics": metrics.to_dict(),
                       "log": hashlib.sha256(log).hexdigest()}, sort_keys=True)


def same(what: str, parent: tuple[str, bytes], new: tuple[str, bytes]) -> None:
    """Stop the run if the sides' (fingerprint, log) differ, naming what and
    the first log line that differs."""
    if parent[0] == new[0]:
        return
    lines = [side[1].splitlines() for side in (parent, new)]
    i = next((i for i, (a, b) in enumerate(zip(*lines)) if a != b), min(map(len, lines)))
    first = [side[i].decode() if i < len(side) else "(none)" for side in lines]
    raise SystemExit(f"ab: {what} differs\n  parent: {parent[0]}\n  new:    {new[0]}\n"
                     f"  first differing log line, {i + 1}:\n"
                     f"    parent: {first[0]}\n    new:    {first[1]}")


def drawn_configs(count: int) -> list[tuple]:
    """count (config, seed) pairs drawn as the property tests draw them, the
    same on every run."""
    from conftest import valid_configs
    from hypothesis import HealthCheck, Phase, given, settings, strategies as st

    found = []

    @settings(max_examples=count, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(valid_configs(), st.integers(0, 2**16))
    def collect(config, seed):
        found.append((config, seed))

    collect()
    return found[:count]


# Cells where nodes die under load: the default field for 5 s.
DYING = [(run_bench.ScenarioConfig(rate_pkts_per_s=rate, initial_energy_j=energy,
                                   router=router, duration_s=5.0), seed)
         for rate in (30.0, 60.0) for energy in (0.02, 0.05, 0.1, 0.2)
         for router in run_bench.ROUTERS for seed in range(1, 9)]


def same_cells(what: str, cases: list[tuple], parent: Side, new: Side) -> int:
    """Run every (config, seed) of cases logged on both sides, untimed;
    returns how many were identical (all of them)."""
    for i, (config, seed) in enumerate(cases):
        same(f"{what} {i}, seed {seed}: {config}",
             parent.cell(config, seed, True)[1], new.cell(config, seed, True)[1])
    return len(cases)


def interval(runs: list[list[float]], rng: random.Random) -> tuple[float, float]:
    """Two-stage bootstrap 95% interval of the median of the ratios of every
    run: each resample draws len(runs) runs with replacement, then the cells
    of each drawn run with replacement."""
    medians = []
    for _ in range(BOOTSTRAP):
        sample = []
        for ratios in rng.choices(runs, k=len(runs)):
            sample += rng.choices(ratios, k=len(ratios))
        medians.append(statistics.median(sample))
    medians.sort()
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def workload_ratios(w, parent: Side, new: Side, k: int) -> dict:
    """{phase: [new/parent time ratio of each cell]} of workload w in run k,
    the side that goes first alternating by cell, repeat and run."""
    cells = run_bench.grid(w, run_bench.sim_seeds(run_bench.DEFAULT_SEED, w.n_seeds))
    ratios = {phase: [] for phase in PHASES}
    for i, (key, config, seed) in enumerate(cells):
        best = {side: dict.fromkeys(PHASES, float("inf")) for side in (parent, new)}
        prints = {}
        for r in range(REPEATS):
            for side in ((parent, new) if (i + r + k) % 2 == 0 else (new, parent)):
                times, prints[side] = side.cell(config, seed, w.logged)
                best[side] = {p: min(best[side][p], times[p]) for p in PHASES}
        same(f"{w.name} cell {key}", prints[parent], prints[new])
        for phase in PHASES:
            ratios[phase].append(best[new][phase] / best[parent][phase])
    return ratios


def sides(parent_dir: Path, new_dir: Path, tmp: Path, k: int) -> tuple[Side, Side]:
    """The parent's package from parent_dir and the new side's from new_dir,
    imported into this process for run k: the parent first if k is even."""
    dirs = {"parent": parent_dir, "new": new_dir}
    order = ("parent", "new") if k % 2 == 0 else ("new", "parent")
    packages = {name: load(dirs[name], f"qempar_{name}") for name in order}
    return (Side(packages["parent"], tmp / "parent.jsonl"),
            Side(packages["new"], tmp / "new.jsonl"))


def timing_run(task) -> dict:
    """Run k of the timing, in a process of its own: {workload: ratios}."""
    parent_dir, new_dir, tmp, k = task
    parent, new = sides(parent_dir, new_dir, tmp, k)
    return {name: workload_ratios(w, parent, new, k) for name, w in run_bench.WORKLOADS.items()}


def workload_report(runs: list[dict], rng: random.Random) -> dict:
    """The report of one workload from its {phase: ratios} of every run."""
    report = {"cells": len(runs[0]["setup"])}
    for phase in PHASES:
        per_run = [ratios[phase] for ratios in runs]
        pooled = [v for ratios in per_run for v in ratios]
        run_medians = [statistics.median(ratios) for ratios in per_run]
        low, high = interval(per_run, rng)
        report[phase] = {"median": statistics.median(pooled), "low": low, "high": high,
                         "runs": run_medians, "spread": max(run_medians) - min(run_medians),
                         "new_faster": sum(v < 1.0 for v in pooled), "pairs": len(pooled)}
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--new", type=Path, help="package directory of the new side "
                        "(default: the working tree's src/qempar)")
    parser.add_argument("--label", default="working tree")
    args = parser.parse_args(argv)
    rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    out = ROOT / f"BENCH_{rev[:7]}.json"
    rng = random.Random(0)

    with tempfile.TemporaryDirectory(prefix="qempar-ab-") as tmp:
        tmp = Path(tmp)
        parent_dir = extract(rev, tmp / "parent")
        new_dir = (args.new or ROOT / "src" / "qempar").resolve()
        parent, new = sides(parent_dir, new_dir, tmp, 0)
        for i, (config, seed) in enumerate(PINNED):
            same(f"pinned case {i}", parent.pinned(config, seed), new.pinned(config, seed))
        identical = {"pinned": len(PINNED),
                     "drawn": same_cells("drawn config", drawn_configs(DRAWN), parent, new),
                     "dying": same_cells("dying cell", DYING, parent, new)}
        # One run at a time, each in a fresh process (spawn, one task per worker).
        with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
            runs = pool.map(timing_run, [(parent_dir, new_dir, tmp, k) for k in range(RUNS)],
                            chunksize=1)
    workloads = {name: workload_report([run[name] for run in runs], rng)
                 for name in run_bench.WORKLOADS}

    result = json.loads(out.read_text()) if out.exists() else {}
    if result.get("parent") != rev:
        result = {"parent": rev, "runs": {}}
    result["runs"][args.label] = {
        "python": platform.python_version(), "cpus": os.cpu_count(), "repeats": REPEATS,
        "runs": RUNS,
        "identical": {**identical, "cells": sum(r["cells"] for r in workloads.values())},
        "workloads": workloads}
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result["runs"][args.label]))


if __name__ == "__main__":
    main()
