"""The benchmark's three workloads: inputs, operations, set-up and row checks.

Every workload drives the public entry points a user drives:
``repro.api.run`` for the two single-run workloads, and ``CampaignRunner``
over a JSONL ``ResultStore`` for ``campaign-mix``.  Each workload has a fixed
*pool* of inputs (run seeds, or campaign grid seeds), small enough that a
run makes many whole passes over it, in an order drawn from ``--seed``, and
times each input by its fastest repeat.  Every seed thus runs the same
inputs, so the spread between runs is the host's and not that of a changing
sample: with inputs drawn per seed, the campaign task-wall median moved by
about 13% between grid seeds alone.
The fixed pool is also what lets the committed reference digests
(``reference.json``) cover every row a run can produce.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api import NetworkSpec, RunSpec, run
from repro.api.engines import build_protocol
from repro.campaign.grid import Grid
from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ROW_TS_KEY, JsonlResultStore
from repro.obs.instrument import Instrumentation
from repro.runtime.daemon import make_daemon
from repro.runtime.observers import Observer
from repro.runtime.scheduler import Scheduler
from repro.shard import ShardedScheduler

#: Row entries that hold timings, paths or observability blobs rather than
#: the measured execution; the reference digest ignores them.
VOLATILE_KEYS = ("perf", "telemetry", "health", "flight_log", ROW_TS_KEY)


def row_digest(row: dict) -> str:
    """Stable digest of a row's execution-defining entries."""
    clean = {key: value for key, value in row.items() if key not in VOLATILE_KEYS}
    blob = json.dumps(clean, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class Sample:
    """One timed operation: an ``api.run`` call, or one campaign task."""

    key: str
    wall: float
    row: dict | None
    steps: int = 0
    moves: int = 0
    error: str | None = None


class _MovesProbe(Observer):
    """Keeps the scheduler so the run's move count can be read afterwards.

    It hooks only ``on_run_start``; the per-step hooks stay the base class's
    no-ops, so the probe adds one empty call per step and nothing else.
    """

    def __init__(self) -> None:
        self.scheduler = None

    def on_run_start(self, source, payload) -> None:
        self.scheduler = source


@dataclass(frozen=True)
class RunWorkload:
    """One ``api.run`` call per operation, on the specs of a run-seed pool."""

    name: str
    why: str
    protocol: str
    family: str
    size: int
    daemon: str
    engine: str
    pool: tuple[int, ...]
    shards: int | None = None
    #: Operations in one traced pass (kept small: the pass runs each twice).
    traced_ops: int = 1

    def spec(self, run_seed: int) -> RunSpec:
        return RunSpec(
            engine=self.engine,
            protocol=self.protocol,
            network=NetworkSpec(family=self.family, size=self.size),
            daemon=self.daemon,
            seed=run_seed,
            shards=self.shards,
        )

    def setup(self) -> None:
        """Build every pool input up to a ready engine, the way ``run`` does.

        The engine constructor draws the arbitrary starting configuration;
        for ``sharded-sync`` it also starts the workers, which ``close`` stops.
        """
        for run_seed in self.pool:
            spec = self.spec(run_seed)
            engine = (ShardedScheduler if self.shards else Scheduler)(
                spec.network.build(),
                build_protocol(spec.protocol),
                daemon=make_daemon(spec.daemon),
                rng=random.Random(run_seed),
                **({"shards": self.shards} if self.shards else {}),
            )
            if self.shards:
                engine.close()

    def execute(self, run_seed: int, workdir: Path, perf: bool = False) -> list[Sample]:
        """One operation: ``api.run`` on the spec, timed end to end.

        ``perf`` attaches an ``Instrumentation`` registry (the traced pass).
        """
        probe = _MovesProbe()
        instrumentation = Instrumentation() if perf else None
        started = time.perf_counter()
        result = run(self.spec(run_seed), observers=(probe,), instrumentation=instrumentation)
        wall = time.perf_counter() - started
        row = result.row
        moves = probe.scheduler.metrics.moves if probe.scheduler is not None else 0
        return [Sample(str(run_seed), wall, row, int(row["total_steps"]), moves)]

    def record(self) -> dict:
        from repro.graphs.generators import family

        network = family(self.family, self.size)
        return {
            "name": self.name,
            "why": self.why,
            "protocol": self.protocol,
            "family": self.family,
            "n": network.n,
            "m": network.num_edges(),
            "daemon": self.daemon,
            "engine": self.engine,
            "shards": self.shards,
            "seed_argument": (
                f"orders the fixed pool of run seeds {', '.join(map(str, self.pool))} "
                "(RunSpec.seed: starting configuration and daemon choices)"
            ),
        }


@dataclass(frozen=True)
class CampaignWorkload:
    """One serial campaign per operation; each task is one timed sample."""

    name: str
    why: str
    pool: tuple[int, ...]
    scenario_grid: dict
    msgpass_grid: dict
    traced_ops: int = 1

    def grids(self, grid_seed: int) -> tuple[Grid, Grid]:
        return (
            Grid(task_type="scenario", seed=grid_seed, **self.scenario_grid),
            Grid(task_type="msgpass", seed=grid_seed, **self.msgpass_grid),
        )

    def setup(self) -> None:
        """Expand every pool campaign and build each task's inputs up to its engine."""
        from repro.campaign.tasks import runspec_for_task

        for grid in (grid for seed in self.pool for grid in self.grids(seed)):
            for task in grid.expand():
                spec = runspec_for_task(task)
                network = spec.network.build()
                if spec.engine != "msgpass":
                    Scheduler(
                        network,
                        build_protocol(spec.protocol),
                        daemon=make_daemon(spec.daemon),
                        rng=random.Random(spec.seed),
                    )

    def execute(self, grid_seed: int, workdir: Path, perf: bool = False) -> list[Sample]:
        """Run one campaign into a fresh store; task walls from progress gaps.

        A task's wall runs from the previous progress callback (or the start
        of its grid) to its own, so it includes the store append.
        """
        store = JsonlResultStore(workdir / "rows.jsonl")
        runner = CampaignRunner(
            store=store,
            jobs=1,
            perf=perf,
            telemetry=True,
            health=True,
            record=str(workdir / "flightlogs"),
        )
        samples: list[Sample] = []
        mark = [0.0]

        def progress(row: dict) -> None:
            now = time.perf_counter()
            heat = (row.get("telemetry") or {}).get("guard_heat") or {}
            samples.append(
                Sample(
                    str(row["config_hash"]),
                    now - mark[0],
                    None,
                    int(row.get("total_steps") or 0),
                    int(sum(heat.values())),
                )
            )
            mark[0] = time.perf_counter()

        for grid in self.grids(grid_seed):
            mark[0] = time.perf_counter()
            runner.run(grid, progress=progress)
        stored = {str(row["config_hash"]): row for row in JsonlResultStore(store.path).rows()}
        for sample in samples:
            sample.row = stored.get(sample.key)
        return samples

    def record(self) -> dict:
        scenario, msgpass = self.grids(self.pool[0])
        return {
            "name": self.name,
            "why": self.why,
            "tasks": len(scenario) + len(msgpass),
            "scenario_grid": {
                "scenarios": list(scenario.scenarios),
                "protocols": list(scenario.protocols),
                "families": list(scenario.families),
                "n": list(scenario.sizes),
                "daemon": list(scenario.daemons),
                "engine": "scenario",
            },
            "msgpass_grid": {
                "workloads": list(msgpass.workloads),
                "families": list(msgpass.families),
                "n": list(msgpass.sizes),
                "engine": "msgpass",
            },
            "m": "per task; random_tree n-1, grid 2r(r-1) for r = round(sqrt(n))",
            "jobs": 1,
            "store": "jsonl, with telemetry, health and the flight recorder on",
            "seed_argument": (
                f"orders the fixed pool of campaign grid seeds {', '.join(map(str, self.pool))} "
                "(Grid.seed: every task's network and run seeds derive from it)"
                + ("; a pool of one campaign, so every seed runs it alike" if len(self.pool) == 1 else "")
            ),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        RunWorkload(
            name="dftno-central",
            why=(
                "Theorem 3.2.3 setting; DFTNO never goes silent, so legitimacy is "
                "re-checked every step of the 3(n+m)+10 closure window"
            ),
            protocol="dftno",
            family="grid",
            size=49,
            daemon="central",
            engine="scheduler",
            pool=tuple(range(8)),
            traced_ops=2,
        ),
        RunWorkload(
            name="sharded-sync",
            why=(
                "every enabled node moves every step, in two worker processes: guard "
                "refresh and commit run in the workers, and frontier exchange crosses "
                "process boundaries; STNO is silent, so legitimacy is a small share"
            ),
            protocol="stno-bfs",
            family="grid",
            size=225,
            daemon="synchronous",
            engine="scheduler-sharded",
            shards=2,
            pool=tuple(range(8)),
        ),
        CampaignWorkload(
            name="campaign-mix",
            why=(
                "many short runs: per-run set-up, scenario mutations, observers, "
                "flight logs and the store write carry a share they never reach in long runs"
            ),
            pool=(0,),
            scenario_grid={
                "scenarios": ("cascade", "churn", "blackout"),
                "protocols": ("dftno", "stno-bfs"),
                "families": ("random_tree", "grid"),
                "sizes": (9, 16),
            },
            msgpass_grid={
                "workloads": ("broadcast", "traversal"),
                "families": ("random_tree", "grid"),
                "sizes": (16, 24, 32, 40),
            },
        ),
    )
}


def pass_order(workload, seed: int) -> list[int]:
    """One pass over the workload's pool, in the seed's order."""
    return random.Random(seed).sample(workload.pool, len(workload.pool))


def check_samples(samples: list[Sample], reference: dict) -> int:
    """Mark samples that raised, did not converge or differ from the reference.

    Returns the number of failed samples; each failure's reason lands in
    ``sample.error``.
    """
    failed = 0
    for sample in samples:
        if sample.error is None:
            if sample.row is None:
                sample.error = "no row stored"
            elif not sample.row.get("converged"):
                sample.error = "did not converge"
            elif reference.get(sample.key) != row_digest(sample.row):
                sample.error = (
                    f"row digest {row_digest(sample.row)} != reference "
                    f"{reference.get(sample.key)}"
                )
        if sample.error is not None:
            failed += 1
    return failed


def load_reference(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import platform

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
