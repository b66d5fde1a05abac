"""Throughput benchmark of the sharded multi-process engine vs the
single-process incremental core.

The workload is the step loop the engines disagree about: the full DFTNO
stack under the synchronous daemon from an arbitrary configuration -- the
chaotic stabilization phase, where most processors stay enabled and every
step evaluates and executes guards across the whole network.  Both engines
run the *identical* execution (asserted: same step count, same final
configuration), so the wall-clock ratio isolates what sharding buys.

Measurements land in ``BENCH_sharded.json``: wall-clock for n in
{200, 500, 1000} at k in {1, 2, 4} (plus the single-process baseline), with
steps/second and speedups.  The acceptance threshold -- >1.5x over the
single-process incremental core at n=1000, k=4 -- applies only to the full
sweep on a machine with at least 4 CPUs: sharding spends real IPC to buy
parallel guard evaluation, so on a 1-CPU box the engine is *expected* to
lose, and the artifact records exactly that (``threshold``:
``not applicable``) instead of lying.

Run as a script (what ``scripts/smoke.sh`` and CI do)::

    PYTHONPATH=src python benchmarks/bench_sharded.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_sharded.py --quick    # CI / smoke
    PYTHONPATH=src python benchmarks/bench_sharded.py --out path.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.core.dftno import build_dftno
from repro.graphs import generators
from repro.runtime.daemon import SynchronousDaemon
from repro.runtime.scheduler import Scheduler
from repro.shard import ShardedScheduler

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_utils import append_history  # noqa: E402

#: (n, timed steps) of the full sweep; steps shrink as per-step cost grows.
FULL_SIZES = ((200, 120), (500, 48), (1000, 24))
QUICK_SIZES = ((80, 40),)

FULL_SHARDS = (1, 2, 4)
QUICK_SHARDS = (1, 2)

REQUIRED_SPEEDUP = 1.5
REQUIRED_AT = (1000, 4)  # (n, shards)
#: Fewer CPUs than shards cannot parallelize; the threshold needs all four.
REQUIRED_CPUS = 4

DEFAULT_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"


def _build(n: int, shards: int | None):
    network = generators.random_connected(n, seed=1)
    if shards is None:
        return Scheduler(
            network, build_dftno(), daemon=SynchronousDaemon(), seed=7
        )
    return ShardedScheduler(
        network,
        build_dftno(),
        daemon=SynchronousDaemon(),
        seed=7,
        shards=shards,
        mode="fork",
    )


def _time_steps(n: int, steps: int, shards: int | None) -> dict[str, object]:
    """Time ``steps`` scheduler steps; return the row plus the final config."""
    scheduler = _build(n, shards)
    try:
        scheduler.enabled_nodes()  # setup: initial full guard scan / shard load
        started = time.perf_counter()
        executed = 0
        for _ in range(steps):
            if scheduler.step() is None:
                break
            executed += 1
        elapsed = time.perf_counter() - started
        return {
            "n": n,
            "engine": "single-process" if shards is None else f"sharded-k{shards}",
            "shards": shards,
            "steps": executed,
            "seconds": round(elapsed, 4),
            "steps_per_second": round(executed / elapsed, 2) if elapsed > 0 else None,
            "_final": scheduler.configuration.copy(),
        }
    finally:
        closer = getattr(scheduler, "close", None)
        if closer is not None:
            closer()


def run_bench(
    sizes=FULL_SIZES, shard_counts=FULL_SHARDS, emit=print
) -> dict[str, object]:
    """Run the sweep and return the artifact payload (also emitted per row)."""
    rows: list[dict[str, object]] = []
    speedups: dict[str, float] = {}
    for n, steps in sizes:
        baseline = _time_steps(n, steps, shards=None)
        reference_final = baseline.pop("_final")
        rows.append(baseline)
        emit(
            f"n={n}: single-process {baseline['seconds']:.3f}s "
            f"({baseline['steps']} steps)"
        )
        for shards in shard_counts:
            row = _time_steps(n, steps, shards=shards)
            final = row.pop("_final")
            # Identical executions or the comparison is meaningless.
            assert row["steps"] == baseline["steps"], (n, shards, row, baseline)
            assert final == reference_final, f"sharded k={shards} diverged at n={n}"
            speedup = (
                baseline["seconds"] / row["seconds"] if row["seconds"] else None
            )
            if speedup is not None:
                speedups[f"n{n}-k{shards}"] = round(speedup, 2)
            row["speedup_vs_single_process"] = speedup and round(speedup, 2)
            rows.append(row)
            emit(
                f"n={n}: sharded k={shards} {row['seconds']:.3f}s "
                f"-> speedup {speedup:.2f}x"
            )
    cpus = os.cpu_count() or 1
    required_key = f"n{REQUIRED_AT[0]}-k{REQUIRED_AT[1]}"
    measured = speedups.get(required_key)
    if measured is None:
        threshold = {"status": "not applicable", "reason": "quick sweep"}
    elif cpus < REQUIRED_CPUS:
        threshold = {
            "status": "not applicable",
            "reason": f"{cpus} CPU(s); sharding needs >= {REQUIRED_CPUS} to parallelize",
            "measured": measured,
        }
    else:
        threshold = {
            "status": "pass" if measured >= REQUIRED_SPEEDUP else "FAIL",
            "measured": measured,
        }
    return {
        "benchmark": "sharded_engine",
        "workload": "DFTNO chaotic-phase step throughput, synchronous daemon, seed 7",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpus": cpus,
        "sizes": [list(pair) for pair in sizes],
        "shard_counts": list(shard_counts),
        "rows": rows,
        "speedups": speedups,
        "required_speedup": REQUIRED_SPEEDUP,
        "required_at": {"n": REQUIRED_AT[0], "shards": REQUIRED_AT[1]},
        "threshold": threshold,
    }


def write_artifact(payload: dict[str, object], path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"trimmed sweep {QUICK_SIZES} x k{QUICK_SHARDS} for CI / smoke "
        "(threshold not applicable)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_ARTIFACT,
        metavar="PATH",
        help=f"artifact path (default {DEFAULT_ARTIFACT.name} in the repo root)",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=None,
        metavar="PATH",
        help="perf-trajectory JSONL to append to "
        "(default BENCH_history.jsonl in the repo root)",
    )
    args = parser.parse_args(argv)
    payload = run_bench(QUICK_SIZES, QUICK_SHARDS) if args.quick else run_bench()
    write_artifact(payload, args.out)
    print(f"wrote {args.out}")
    history = append_history(payload, args.history)
    print(f"appended {history}")
    if payload["threshold"]["status"] == "FAIL":
        print(
            f"FAILED: sharded speedup at n={REQUIRED_AT[0]}, k={REQUIRED_AT[1]} "
            f"below {REQUIRED_SPEEDUP}x: {payload['speedups']}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
