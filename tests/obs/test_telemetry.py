"""Convergence telemetry: sampling, heat maps, decimation, API embedding."""

from __future__ import annotations

import json

import pytest

from repro.api import NetworkSpec, RunSpec, run
from repro.graphs import generators
from repro.obs import (
    ConvergenceTelemetryObserver,
    enabled_trajectory,
    guard_heat_table,
)
from repro.runtime.daemon import make_daemon
from repro.runtime.scheduler import Scheduler
from repro.shard import ShardedScheduler
from repro.substrates.spanning_tree import BFSSpanningTree


def _observed_run(n: int = 12, seed: int = 7, stride: int = 4, **kwargs):
    network = generators.random_connected(n, seed=1)
    observer = ConvergenceTelemetryObserver(stride=stride, **kwargs)
    scheduler = Scheduler(
        network,
        BFSSpanningTree(),
        daemon=make_daemon("central"),
        seed=seed,
        observers=(observer,),
    )
    result = scheduler.run_until_legitimate(max_steps=8 * n * n)
    return observer, result


def test_samples_follow_the_stride_and_drain():
    observer, result = _observed_run(stride=4)
    assert result.converged
    snapshot = observer.snapshot()
    steps = [sample[0] for sample in snapshot["samples"]]
    assert steps[0] == 0
    assert all(step % 4 == 0 for step in steps)
    assert steps == sorted(steps)
    trajectory = enabled_trajectory(snapshot)
    assert trajectory, "scheduler runs must expose the enabled set"
    # A stabilizing run drains the enabled set: the last observation is
    # strictly below the first (and legitimacy flips to 1 by the end).
    assert trajectory[-1][1] < trajectory[0][1]
    legitimate_index = snapshot["columns"].index("legitimate")
    assert snapshot["samples"][0][legitimate_index] in (0, 1)
    # run_until_legitimate leaves the convergence notification to the
    # measurement harness; fired explicitly, it stamps the converged step.
    assert observer.converged_step is None
    assert snapshot["converged_step"] is None


def test_guard_heat_and_writes_accumulate_per_move():
    observer, _ = _observed_run()
    snapshot = observer.snapshot()
    assert snapshot["guard_heat"], "a converging run fires guards"
    for key, count in snapshot["guard_heat"].items():
        assert ":" in key and count > 0
    total_moves = sum(snapshot["guard_heat"].values())
    table = guard_heat_table(snapshot)
    assert [row["fires"] for row in table] == sorted(
        (row["fires"] for row in table), reverse=True
    )
    assert sum(row["fires"] for row in table) == total_moves
    assert len(guard_heat_table(snapshot, limit=2)) == 2
    # Writes-per-node keys are stringified for JSON stability.
    assert snapshot["writes_per_node"]
    assert all(isinstance(node, str) for node in snapshot["writes_per_node"])


def test_decimation_bounds_the_series():
    observer, _ = _observed_run(n=16, stride=1, max_samples=8)
    assert len(observer.samples) < 8
    assert observer.stride > 1, "decimation must double the stride"
    snapshot = observer.snapshot()
    assert snapshot["stride"] == observer.stride
    steps = [sample[0] for sample in snapshot["samples"]]
    assert steps == sorted(steps)


def test_snapshot_round_trips_byte_stable():
    observer, _ = _observed_run()
    snapshot = observer.snapshot()
    encoded = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    decoded = json.loads(encoded)
    assert decoded == snapshot
    assert json.dumps(decoded, sort_keys=True, separators=(",", ":")) == encoded


def test_sharded_run_records_shard_moves():
    network = generators.random_connected(12, seed=1)
    observer = ConvergenceTelemetryObserver(stride=4)
    scheduler = ShardedScheduler(
        network,
        BFSSpanningTree(),
        daemon=make_daemon("central"),
        seed=7,
        shards=2,
        mode="inline",
        observers=(observer,),
    )
    result = scheduler.run_until_legitimate(max_steps=2000)
    assert result.converged
    snapshot = observer.snapshot()
    shard_moves = snapshot.get("shard_moves")
    assert shard_moves and set(shard_moves) <= {"0", "1"}
    assert sum(shard_moves.values()) == sum(snapshot["guard_heat"].values())


def test_api_run_embeds_telemetry_and_health():
    spec = RunSpec(
        engine="scheduler",
        protocol="dftno",
        network=NetworkSpec(family="random_connected", size=10, seed=3),
        daemon="distributed",
        seed=5,
    )
    bare = run(spec)
    assert "telemetry" not in bare.row and bare.telemetry is None
    assert "health" not in bare.row and bare.health is None

    monitored = run(spec, telemetry=8, health=True)
    assert monitored.row["telemetry"] is monitored.telemetry
    assert monitored.row["health"] is monitored.health
    assert monitored.telemetry["samples"]
    # The measurement harness fires the convergence notification.
    assert monitored.telemetry["converged_step"] is not None
    assert monitored.health["anomalies"] == []
    # The observers never perturb the measured execution.
    for key in ("overlay_steps", "total_steps", "converged"):
        if key in bare.row:
            assert monitored.row[key] == bare.row[key], key

    with pytest.raises(TypeError):
        run(spec, telemetry="yes")
    with pytest.raises(TypeError):
        run(spec, health=3.5)


def test_api_run_accepts_prebuilt_observers():
    spec = RunSpec(
        engine="scheduler",
        protocol="stno-bfs",
        network=NetworkSpec(family="random_connected", size=8, seed=2),
        daemon="central",
        seed=4,
    )
    observer = ConvergenceTelemetryObserver(stride=2)
    result = run(spec, telemetry=observer)
    assert result.telemetry == observer.snapshot()
    assert result.telemetry["samples"]


def test_events_recorded_from_scenarios():
    spec = RunSpec(
        engine="scenario",
        protocol="dftno",
        network=NetworkSpec(family="random_connected", size=8, seed=2),
        daemon="distributed",
        seed=4,
        scenario="single_burst",
    )
    result = run(spec, telemetry=4)
    events = result.telemetry.get("events")
    assert events, "scenario runs emit events into the telemetry blob"
    assert all(len(event) == 2 for event in events)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ConvergenceTelemetryObserver(stride=0)
    with pytest.raises(ValueError):
        ConvergenceTelemetryObserver(max_samples=1)
