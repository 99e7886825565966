"""Tests of the benchmark itself, at smoke-test size."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run_bench as rb
from qempar import engine
from tracer import Tracer

ROOT = rb.HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("name", sorted(rb.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name):
    w = rb.WORKLOADS[name].tiny()
    original_run = engine.run
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = rb.measure(w, SEED, 0.0, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == _units(section)
    assert engine.run is original_run  # the traced pass restored every wrapper


def test_wrapper_cost_is_positive_and_small():
    assert 0 < Tracer.wrapper_cost() < 5e-6


def test_tampered_reference_digest_fails_the_batch():
    w = rb.WORKLOADS["loaded_loop"].tiny()
    digest = rb.batch_digest(rb.run_batch(w, rb.sim_seeds(SEED, w.n_seeds), jobs=1))
    assert rb.measure(w, SEED, 0.0, False, digest)["failed"] == 0
    result = rb.measure(w, SEED, 0.0, False, "0" * 64)
    assert not result["correct"] and result["failed"] > 0


def _unsettled(m):
    return replace(m, delivered=m.delivered + 1)


def _unbalanced(m):
    return replace(m, ledger_total_j=m.ledger_total_j * (1 + 1e-9))


def _raises(m):
    raise RuntimeError("forced failure")


@pytest.mark.parametrize("breakage", [_unsettled, _unbalanced, _raises])
def test_broken_cells_are_counted(monkeypatch, breakage):
    real = engine.run
    monkeypatch.setattr(engine, "run", lambda *a, **k: breakage(real(*a, **k)))
    result = rb.measure(rb.WORKLOADS["loaded_loop"].tiny(), SEED, 0.0, False)
    assert not result["correct"] and result["failed"] > 0


def test_jobs_disagreement_is_counted(monkeypatch):
    real, parent = engine.run, os.getpid()

    def run_differently_in_workers(*a, **k):
        m = real(*a, **k)
        return m if os.getpid() == parent else replace(m, mean_delay_s=0.0)

    monkeypatch.setattr(engine, "run", run_differently_in_workers)
    # Jobs 2 runs in the traced run only.
    result = rb.measure(rb.WORKLOADS["loaded_loop"].tiny(), SEED, 0.0, True)
    assert not result["correct"] and result["failed"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(rb.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run_bench.py", "--workload", "loaded_loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
