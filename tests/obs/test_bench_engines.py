"""The engine bench harness (benchmarks/bench_engines.py) at tiny sizes."""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.runtime.scheduler import Scheduler

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


bench = _load("bench_engines", REPO_ROOT / "benchmarks" / "bench_engines.py")
check_perf = _load("check_perf", REPO_ROOT / "scripts" / "check_perf.py")


def _quiet(_line: str) -> None:
    pass


def _seed_8(network, protocol, **kwargs):
    """A candidate that ignores the workload's run seed: a different execution."""
    return Scheduler(network, protocol, **{**kwargs, "seed": 8})


def test_divergent_candidate_fails_naming_case_and_n():
    case = replace(
        bench.CASES["scheduler-core"], quick=bench.Sweep((20,), (("seed-8", _seed_8),))
    )
    with pytest.raises(AssertionError, match=r"^scheduler-core: seed-8 diverged .* at n=20"):
        bench.run_case(case, quick=True, emit=_quiet)


def test_vectorized_threshold_not_applicable_without_numpy(monkeypatch):
    monkeypatch.setattr(bench, "HAVE_NUMPY", False)
    payload = bench.run_case(bench.CASES["vectorized"], emit=_quiet)
    assert payload["rows"] == []
    assert payload["threshold"]["status"] == "not applicable"
    assert "numpy" in payload["threshold"]["reason"]
    assert bench.failures(payload) == []


def test_sharded_threshold_needs_four_cpus(monkeypatch):
    case = bench.CASES["sharded"]
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
    verdict = bench.threshold(case, {"n1000-k4": 0.9})
    assert verdict["status"] == "not applicable"
    assert "2 CPU(s)" in verdict["reason"]
    assert verdict["measured"] == 0.9
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)
    assert bench.threshold(case, {"n1000-k4": 0.9})["status"] == "FAIL"
    assert bench.threshold(case, {"n1000-k4": 1.5})["status"] == "pass"
    assert bench.threshold(case, {"n80-k2": 0.6})["reason"] == "quick sweep"


def test_scheduler_core_must_win_at_every_size():
    case = bench.CASES["scheduler-core"]
    assert bench.threshold(case, {"50": 4.0, "500": 3.0})["status"] == "pass"
    assert bench.threshold(case, {"50": 4.0, "500": 2.9})["status"] == "FAIL"
    assert bench.threshold(case, {"50": 0.9, "500": 3.5})["status"] == "FAIL"


def test_scheduler_core_history_line_passes_check_perf(tmp_path, monkeypatch):
    # The overhead and coverage budgets are wall-clock ratios that sizes this
    # small cannot meet (fixed per-run costs dominate); the quick CI sweep
    # holds the real ones.  This test is about the trajectory schema: the
    # speedups and phases check_perf compares.
    monkeypatch.setattr(bench, "MAX_DISABLED_OVERHEAD", 1.0)
    monkeypatch.setattr(bench, "MIN_PHASE_COVERAGE", 0.0)
    monkeypatch.setattr(bench, "MAX_RECORDER_OVERHEAD", 10.0)
    monkeypatch.setitem(
        bench.CASES,
        "scheduler-core",
        replace(bench.CASES["scheduler-core"], quick=bench.Sweep((20, 30), (bench.INCREMENTAL,))),
    )
    out, history = tmp_path / "engines.json", tmp_path / "history.jsonl"
    args = ["--quick", "--case", "scheduler-core", "--out", str(out), "--history", str(history)]
    assert bench.main(args) == 0
    assert len(history.read_text().splitlines()) == 1
    gate = ["--current", str(out), "--history", str(history), "--require-history"]
    assert check_perf.main(gate) == 0
