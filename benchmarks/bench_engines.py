"""One harness for the execution-engine benches: a reference engine against its candidates.

Every case times a *reference* engine and its *candidate* engines on one
fixed workload -- a protocol on ``random_connected(n, seed=1)`` under a
daemon, run seed 7, until the case's stop rule -- and asserts that every
candidate runs the identical execution (same step count, same stop verdict,
same final configuration), so the wall-clock ratio isolates what the
candidate engine buys.  The cases:

``scheduler-core``
    BFS spanning-tree stabilization, central daemon, ``run_until_legitimate``
    within ``8n`` steps: the full-scan scheduler against the incremental
    enabled-set core.  The incremental core must be >= 3x faster at n=500
    and faster at every size (full sweep).  The observability probes also
    run here: the disabled instrumentation path may cost <= 3% and the phase
    timers must cover >= 90% of step wall; telemetry and the health watchdog
    must leave the execution identical; the flight recorder may cost <= 5%.
``sharded``
    DFTNO's chaotic phase, synchronous daemon, a fixed step budget per n:
    the single-process scheduler against the sharded engine at k shards.
    Sharding must be >= 1.5x faster at n=1000, k=4 -- only on a machine with
    at least 4 CPUs, since fewer cannot run four shards in parallel.
``vectorized``
    BFS spanning-tree stabilization, synchronous daemon, stepped until no
    processor is enabled: per-node dispatch against the numpy batch kernels,
    which must take the fast path on every step and be >= 5x faster at
    n=5000 -- only with numpy installed, without which the case cannot run.

A threshold reads ``not applicable`` (with the reason) on quick sweeps and
where its precondition fails, instead of passing or failing.  Each case
appends one line to ``BENCH_history.jsonl`` under its ``benchmark`` name;
``scripts/check_perf.py`` gates the ``scheduler_core`` line against that
trajectory.  Run as a script::

    PYTHONPATH=src python benchmarks/bench_engines.py                 # full sweeps
    PYTHONPATH=src python benchmarks/bench_engines.py --quick         # CI / smoke
    PYTHONPATH=src python benchmarks/bench_engines.py --quick --case sharded

The exit code is 1 when any threshold or observability budget fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from repro.core.dftno import build_dftno
from repro.graphs import generators
from repro.obs import (
    ConvergenceTelemetryObserver,
    FlightRecorder,
    HealthMonitor,
    Instrumentation,
    NULL_INSTRUMENTATION,
    phase_seconds,
    summary_counter,
)
from repro.runtime.arrayview import HAVE_NUMPY
from repro.runtime.daemon import CentralDaemon, SynchronousDaemon
from repro.runtime.scheduler import Scheduler
from repro.runtime.vectorized import VectorizedScheduler
from repro.shard import ShardedScheduler
from repro.substrates.spanning_tree import BFSSpanningTree

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_utils import append_history  # noqa: E402

DEFAULT_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_engines.json"

#: The disabled instrumentation path (null registry, hoisted ``if timed:``
#: checks) may cost at most this fraction of the uninstrumented wall time.
MAX_DISABLED_OVERHEAD = 0.03
#: With instrumentation on, the per-phase timers must account for at least
#: this fraction of the measured step wall time.
MIN_PHASE_COVERAGE = 0.90
#: The flight recorder may cost at most this fraction of the unrecorded wall.
MAX_RECORDER_OVERHEAD = 0.05
#: Branch checks one scheduler step performs when instrumentation is off,
#: rounded up (step segments + enabled-set refresh + round bookkeeping).
CHECKS_PER_STEP = 16
#: Paired attempts of a one-sidedly noisy probe (contention only ever
#: inflates an overhead or deflates a coverage, never the reverse).
PROBE_ATTEMPTS = 3

#: (label, scheduler factory) -- the factory takes the scheduler's arguments.
Engine = tuple[str, Callable[..., Scheduler]]


@dataclass(frozen=True)
class Sweep:
    sizes: tuple[int, ...]
    candidates: tuple[Engine, ...]


@dataclass(frozen=True)
class Case:
    name: str
    #: The ``benchmark`` name of the case's history lines.
    benchmark: str
    workload: str
    protocol: Callable[[], object]
    daemon: Callable[[], object]
    #: Runs the timed part of the workload: ``(scheduler, n) -> (steps, converged)``.
    stop: Callable[[Scheduler, int], tuple[int, bool]]
    reference: Engine
    full: Sweep
    quick: Sweep
    #: The payload field holding the speedups, and the format of its keys;
    #: both are the history's, so old and new lines compare.
    speedups_field: str
    speedup_key: str
    #: (speedup key, minimum) of the threshold, which applies when measured.
    required: tuple[str, float]
    #: Why the threshold cannot apply on this machine, or ``None``.
    precondition: Callable[[], str | None] = lambda: None
    #: Why the candidates cannot run on this machine at all, or ``None``.
    unavailable: Callable[[], str | None] = lambda: None
    #: Where the threshold applies, every speedup must also exceed this.
    floor: float | None = None
    #: Load the engines (shard start-up) before the clock starts.
    warm: bool = False
    #: Run the observability probes on the largest size's first candidate.
    probes: bool = False


def _stabilize(scheduler: Scheduler, n: int) -> tuple[int, bool]:
    result = scheduler.run_until_legitimate(max_steps=8 * n)
    return result.steps, result.converged


def _until_silent(scheduler: Scheduler, n: int) -> tuple[int, bool]:
    """Step until no processor is enabled (BFS is silent: terminal is legitimate).

    The per-step legitimacy check of ``run_until_legitimate`` is the same
    Python loop on both engines -- a shared additive cost that would dilute
    the ratio this case measures.
    """
    steps = 0
    while scheduler.step() is not None:
        steps += 1
        if steps > 8 * n:
            raise AssertionError(f"n={n}: no termination within {8 * n} rounds")
    return steps, True


#: Timed steps of the sharded case per n; steps shrink as per-step cost grows.
SHARDED_STEPS = {80: 40, 200: 120, 500: 48, 1000: 24}


def _step_budget(scheduler: Scheduler, n: int) -> tuple[int, bool]:
    """Run the sharded case's step budget; ``converged`` is "went silent"."""
    for steps in range(SHARDED_STEPS[n]):
        if scheduler.step() is None:
            return steps, True
    return SHARDED_STEPS[n], False


def _sharded(k: int) -> Engine:
    return f"k{k}", partial(ShardedScheduler, shards=k, mode="fork")


def _need_cpus() -> str | None:
    cpus = os.cpu_count() or 1
    return None if cpus >= 4 else f"{cpus} CPU(s); sharding needs >= 4 to parallelize"


def _need_numpy() -> str | None:
    return None if HAVE_NUMPY else "numpy not installed (pip install .[vectorized])"


INCREMENTAL: Engine = ("incremental", Scheduler)

CASES: dict[str, Case] = {
    case.name: case
    for case in (
        Case(
            name="scheduler-core",
            benchmark="scheduler_core",
            workload="BFS spanning-tree stabilization, central daemon, seed 7",
            protocol=BFSSpanningTree,
            daemon=CentralDaemon,
            stop=_stabilize,
            reference=("fullscan", partial(Scheduler, incremental=False)),
            full=Sweep((50, 200, 500), (INCREMENTAL,)),
            quick=Sweep((50, 120), (INCREMENTAL,)),
            speedups_field="speedup_by_n",
            speedup_key="{n}",
            required=("500", 3.0),
            floor=1.0,
            probes=True,
        ),
        Case(
            name="sharded",
            benchmark="sharded_engine",
            workload="DFTNO chaotic-phase step throughput, synchronous daemon, seed 7",
            protocol=build_dftno,
            daemon=SynchronousDaemon,
            stop=_step_budget,
            reference=("single-process", Scheduler),
            full=Sweep((200, 500, 1000), (_sharded(1), _sharded(2), _sharded(4))),
            quick=Sweep((80,), (_sharded(1), _sharded(2))),
            speedups_field="speedups",
            speedup_key="n{n}-{engine}",
            required=("n1000-k4", 1.5),
            precondition=_need_cpus,
            warm=True,
        ),
        Case(
            name="vectorized",
            benchmark="vectorized_engine",
            workload="BFS spanning-tree stabilization, synchronous daemon, seed 7",
            protocol=BFSSpanningTree,
            daemon=SynchronousDaemon,
            stop=_until_silent,
            reference=("per-node", Scheduler),
            full=Sweep((1000, 5000, 20000), (("vectorized", VectorizedScheduler),)),
            quick=Sweep((300,), (("vectorized", VectorizedScheduler),)),
            speedups_field="speedups",
            speedup_key="n{n}",
            required=("n5000", 5.0),
            unavailable=_need_numpy,
        ),
    )
}


def time_run(case: Case, engine: Engine, n: int, **extra) -> tuple[dict, object]:
    """Time one run of ``case``'s workload on ``engine``; return (row, final config)."""
    label, factory = engine
    scheduler = factory(
        generators.random_connected(n, seed=1),
        case.protocol(),
        daemon=case.daemon(),
        seed=7,
        **extra,
    )
    try:
        if case.warm:
            scheduler.enabled_nodes()
        started = time.perf_counter()
        steps, converged = case.stop(scheduler, n)
        elapsed = time.perf_counter() - started
        row = {
            "n": n,
            "engine": label,
            "steps": steps,
            "converged": converged,
            "seconds": round(elapsed, 4),
            "steps_per_second": round(steps / elapsed, 2) if elapsed > 0 else None,
        }
        fast_steps = getattr(scheduler, "fast_steps", None)
        if fast_steps is not None:
            # The fast path must actually have run, not silently fallen back.
            row["fast_steps"] = fast_steps
            if fast_steps != steps:
                raise AssertionError(
                    f"{case.name}: {label} took the fast path on {fast_steps} "
                    f"of {steps} steps at n={n}"
                )
        return row, scheduler.configuration.copy()
    finally:
        closer = getattr(scheduler, "close", None)
        if closer is not None:
            closer()


def assert_identical(case: Case, n: int, reference, candidate) -> None:
    """Raise unless two ``time_run`` results are the same execution."""
    (ref_row, ref_final), (row, final) = reference, candidate
    for key in ("steps", "converged"):
        if row[key] != ref_row[key]:
            raise AssertionError(
                f"{case.name}: {row['engine']} diverged from {ref_row['engine']} "
                f"at n={n}: {key} {row[key]} != {ref_row[key]}"
            )
    if final != ref_final:
        raise AssertionError(
            f"{case.name}: {row['engine']} diverged from {ref_row['engine']} "
            f"at n={n}: different final configuration"
        )


def _paired(case: Case, engine: Engine, n: int, overhead: str, **extra) -> dict:
    """One bare and one instrumented/observed run, asserted identical."""
    off = time_run(case, engine, n)
    on = time_run(case, engine, n, **extra)
    assert_identical(case, n, off, on)
    off_seconds, on_seconds = off[0]["seconds"], on[0]["seconds"]
    return {
        "n": n,
        "steps": off[0]["steps"],
        "seconds_off": off_seconds,
        "seconds_on": on_seconds,
        overhead: round(on_seconds / (off_seconds or 1e-9) - 1.0, 4),
    }


def _best_of(measure: Callable[[], dict], score: Callable[[dict], float], ok) -> dict:
    """The attempt with the lowest ``score`` of up to :data:`PROBE_ATTEMPTS`,
    stopping early once ``ok`` holds."""
    best: dict | None = None
    for _ in range(PROBE_ATTEMPTS):
        attempt = measure()
        if best is None or score(attempt) < score(best):
            best = attempt
        if ok(best):
            break
    return best


def _disabled_path_cost(steps: int) -> float:
    """Wall time the null-instrumentation branch checks add across ``steps``.

    This is the *whole* per-step price of the disabled path: the hot loops
    hoist ``timed = instr.enabled`` once and every timing site is an
    ``if timed:`` branch, so replaying that exact check sequence isolates the
    overhead without differencing two noisy macro timings.
    """
    instr = NULL_INSTRUMENTATION
    started = time.perf_counter()
    for _ in range(steps * CHECKS_PER_STEP):
        if instr.enabled:
            raise AssertionError("null instrumentation reported enabled")
    return time.perf_counter() - started


def _instrumentation_once(case: Case, engine: Engine, n: int) -> dict:
    instrumentation = Instrumentation()
    measure = _paired(case, engine, n, "enabled_overhead", instrumentation=instrumentation)
    summary = instrumentation.summary()
    step_wall = summary_counter(summary, "step_seconds")
    coverage = phase_seconds(summary) / step_wall if step_wall else None
    disabled = _disabled_path_cost(measure["steps"]) / (measure["seconds_off"] or 1e-9)
    return {
        **measure,
        "disabled_overhead": round(disabled, 6),
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "phase_coverage": round(coverage, 4) if coverage is not None else None,
        "min_phase_coverage": MIN_PHASE_COVERAGE,
        # Raw per-phase seconds: what scripts/check_perf.py normalizes by the
        # step count + machine calibration to gate phase-time regressions.
        "phases": {
            name: round(stats["seconds"], 6)
            for name, stats in summary.get("phases", {}).items()
        },
    }


def _telemetry(case: Case, engine: Engine, n: int) -> dict:
    """Telemetry and the health watchdog must leave the execution identical."""
    telemetry, health = ConvergenceTelemetryObserver(), HealthMonitor()
    measure = _paired(case, engine, n, "enabled_overhead", observers=(telemetry, health))
    if telemetry.steps != measure["steps"] or not health.healthy:
        raise AssertionError(
            f"{case.name}: telemetry saw {telemetry.steps} of {measure['steps']} "
            f"steps at n={n}; health anomalies: {health.anomalies}"
        )
    return {**measure, "samples": len(telemetry.samples), "identical_steps": True}


def _recorder_once(case: Case, engine: Engine, n: int) -> dict:
    handle, path = tempfile.mkstemp(suffix=".flight.jsonl")
    os.close(handle)
    try:
        recorder = FlightRecorder(path)
        try:
            measure = _paired(case, engine, n, "recorder_overhead", observers=(recorder,))
        finally:
            recorder.close()
        with open(path, "r", encoding="utf-8") as stream:
            entries = sum(1 for _ in stream)
        log_bytes = os.path.getsize(path)
    finally:
        os.unlink(path)
    return {
        **measure,
        "max_recorder_overhead": MAX_RECORDER_OVERHEAD,
        "log_entries": entries,
        "log_bytes": log_bytes,
        "identical_steps": True,
    }


def instrumentation_ok(measure: dict) -> bool:
    coverage = measure["phase_coverage"]
    return measure["disabled_overhead"] <= MAX_DISABLED_OVERHEAD and (
        coverage is None or coverage >= MIN_PHASE_COVERAGE
    )


def recorder_ok(measure: dict) -> bool:
    return measure["recorder_overhead"] <= MAX_RECORDER_OVERHEAD


def run_probes(case: Case, engine: Engine, n: int, emit=print) -> dict:
    """The observability probes on ``engine`` at size ``n``."""
    instrumentation = _best_of(
        partial(_instrumentation_once, case, engine, n),
        lambda measure: -(measure["phase_coverage"] or 0.0),
        instrumentation_ok,
    )
    emit(
        f"instrumentation at n={n}: disabled-path overhead "
        f"{100 * instrumentation['disabled_overhead']:.3f}% "
        f"(max {100 * MAX_DISABLED_OVERHEAD:.0f}%), phase coverage "
        f"{100 * (instrumentation['phase_coverage'] or 0):.1f}% "
        f"(min {100 * MIN_PHASE_COVERAGE:.0f}%)"
    )
    telemetry = _telemetry(case, engine, n)
    emit(
        f"telemetry at n={n}: identical execution ({telemetry['steps']} steps), "
        f"{telemetry['samples']} samples, enabled overhead "
        f"{100 * telemetry['enabled_overhead']:.1f}%"
    )
    # A small warm-up absorbs one-time costs (json/hashlib first use, file
    # creation) that would otherwise be billed to the first attempt.
    _recorder_once(case, engine, min(n, 30))
    recorder = _best_of(
        partial(_recorder_once, case, engine, n),
        lambda measure: measure["recorder_overhead"],
        recorder_ok,
    )
    emit(
        f"flight recorder at n={n}: identical execution ({recorder['steps']} "
        f"steps, {recorder['log_entries']} log entries), overhead "
        f"{100 * recorder['recorder_overhead']:.2f}% "
        f"(max {100 * MAX_RECORDER_OVERHEAD:.0f}%)"
    )
    return {"instrumentation": instrumentation, "telemetry": telemetry, "recorder": recorder}


def threshold(case: Case, speedups: dict[str, float]) -> dict:
    """The threshold verdict: ``pass``, ``FAIL`` or ``not applicable`` (with why)."""
    key, minimum = case.required
    measured = speedups.get(key)
    reason = case.unavailable() or (
        "quick sweep" if measured is None else case.precondition()
    )
    if reason is not None:
        verdict = {"status": "not applicable", "reason": reason}
        return verdict if measured is None else {**verdict, "measured": measured}
    ok = measured >= minimum
    if case.floor is not None:
        ok = ok and all(value > case.floor for value in speedups.values())
    return {"status": "pass" if ok else "FAIL", "measured": measured}


def run_case(case: Case, quick: bool = False, emit=print) -> dict:
    """Run one case's sweep (plus its probes) and return its payload."""
    sweep = case.quick if quick else case.full
    rows: list[dict] = []
    speedups: dict[str, float] = {}
    unavailable = case.unavailable()
    if unavailable is not None:
        emit(f"{case.name}: {unavailable}; case skipped")
    for n in () if unavailable else sweep.sizes:
        reference = time_run(case, case.reference, n)
        rows.append(reference[0])
        emit(
            f"{case.name} n={n}: {case.reference[0]} {reference[0]['seconds']:.3f}s "
            f"({reference[0]['steps']} steps)"
        )
        for engine in sweep.candidates:
            candidate = time_run(case, engine, n)
            assert_identical(case, n, reference, candidate)
            row = candidate[0]
            speedup = reference[0]["seconds"] / row["seconds"] if row["seconds"] else None
            row["speedup"] = speedup and round(speedup, 2)
            if speedup is not None:
                speedups[case.speedup_key.format(n=n, engine=engine[0])] = row["speedup"]
            rows.append(row)
            emit(
                f"{case.name} n={n}: {engine[0]} {row['seconds']:.3f}s "
                f"-> speedup {speedup or 0:.2f}x"
            )
    payload = {
        "benchmark": case.benchmark,
        "case": case.name,
        "workload": case.workload,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpus": os.cpu_count(),
        "sizes": list(sweep.sizes),
        "rows": rows,
        case.speedups_field: speedups,
        "required_speedup": case.required[1],
        "required_at": case.required[0],
        "threshold": threshold(case, speedups),
    }
    if case.probes:
        payload.update(run_probes(case, sweep.candidates[0], max(sweep.sizes), emit))
    return payload


def failures(payload: dict) -> list[str]:
    """Why ``payload`` fails its gates (empty when it passes)."""
    found = []
    if payload["threshold"]["status"] == "FAIL":
        found.append(
            f"{payload['case']}: speedup below {payload['required_speedup']}x at "
            f"{payload['required_at']} (or a loss at some size): "
            f"{payload['threshold']['measured']}"
        )
    if "instrumentation" in payload and not instrumentation_ok(payload["instrumentation"]):
        found.append(f"instrumentation thresholds violated: {payload['instrumentation']}")
    if "recorder" in payload and not recorder_ok(payload["recorder"]):
        found.append(f"flight-recorder overhead over budget: {payload['recorder']}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="the small CI / smoke sweeps (thresholds not applicable)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_ARTIFACT,
        metavar="PATH",
        help=f"artifact path, one payload per case (default {DEFAULT_ARTIFACT.name} "
        "in the repo root)",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=None,
        metavar="PATH",
        help="perf-trajectory JSONL to append to "
        "(default BENCH_history.jsonl in the repo root)",
    )
    parser.add_argument(
        "--case",
        action="append",
        choices=sorted(CASES),
        metavar="NAME",
        help=f"run only this case (repeatable; default all of {', '.join(CASES)})",
    )
    args = parser.parse_args(argv)
    payloads = {}
    for name in dict.fromkeys(args.case or CASES):
        payloads[name] = run_case(CASES[name], quick=args.quick)
        history = append_history(payloads[name], args.history)
        print(f"appended {history}")
    args.out.write_text(json.dumps(payloads, indent=2) + "\n")
    print(f"wrote {args.out}")
    failed = [failure for payload in payloads.values() for failure in failures(payload)]
    for failure in failed:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
