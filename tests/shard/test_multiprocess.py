"""The forked-worker half of the sharded engine.

The algorithm is pinned inline (``test_sharded_scheduler.py``); these tests
cover what only real processes can get wrong: pipe framing, payload
pickling (node states, networks), worker lifecycle (spawn, reap, leak),
and crash reporting across the process boundary.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal

import pytest

from repro.api import NetworkSpec, RunSpec, run
from repro.core.dftno import build_dftno
from repro.core.stno import build_stno
from repro.graphs import generators
from repro.runtime.daemon import make_daemon
from repro.runtime.scheduler import Scheduler
from repro.scenarios.library import build_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.shard import ShardError, ShardedScheduler

fork_available = "fork" in multiprocessing.get_all_start_methods()
pytestmark = pytest.mark.skipif(
    not fork_available, reason="fork start method unavailable on this platform"
)


def test_forked_run_matches_the_single_process_run():
    network = generators.random_connected(10, extra_edge_probability=0.3, seed=6)
    plain = Scheduler(
        network, build_dftno(), daemon=make_daemon("distributed"), seed=6
    )
    with ShardedScheduler(
        network,
        build_dftno(),
        daemon=make_daemon("distributed"),
        seed=6,
        shards=3,
        mode="fork",
    ) as sharded:
        for _ in range(120):
            assert plain.enabled_nodes() == sharded.enabled_nodes()
            record_plain, record_sharded = plain.step(), sharded.step()
            assert record_plain == record_sharded
            if record_plain is None:
                break
        assert plain.configuration == sharded.configuration
        assert plain.metrics == sharded.metrics


def test_workers_are_reaped_on_close():
    network = generators.random_connected(8, seed=2)
    sharded = ShardedScheduler(network, build_dftno(), seed=2, shards=2, mode="fork")
    sharded.step()
    processes = [handle.process for handle in sharded._shards]
    assert all(process.is_alive() for process in processes)
    sharded.close()
    assert all(not process.is_alive() for process in processes)


def test_worker_crash_surfaces_as_shard_error_with_traceback():
    network = generators.random_connected(8, seed=2)
    sharded = ShardedScheduler(network, build_dftno(), seed=2, shards=2, mode="fork")
    try:
        sharded.step()
        with pytest.raises(ShardError, match="worker traceback"):
            sharded._command({0: ("no-such-command",)})
    finally:
        sharded.close()


def test_killed_worker_fails_the_next_step_with_a_typed_error(capfd):
    """A SIGKILLed worker must not surface as a raw ``BrokenPipeError``."""
    network = generators.grid(5, 5)
    sharded = ShardedScheduler(
        network,
        build_stno(tree="bfs"),
        daemon=make_daemon("distributed"),
        seed=0,
        shards=2,
        mode="fork",
    )
    processes = [handle.process for handle in sharded._shards]
    # Step until a move changes state: its owner is then addressed by the
    # next step's frontier exchange.
    record = sharded.step()
    while not record.changed_nodes:
        record = sharded.step()
    victim = sharded.partition.owner_of(record.changed_nodes[0])
    os.kill(processes[victim].pid, signal.SIGKILL)
    processes[victim].join(timeout=5)
    with pytest.raises(ShardError, match=f"shard {victim} worker process"):
        sharded.step()
    sharded.close()  # already closed by the failure: a no-op
    assert all(not process.is_alive() for process in processes)
    del sharded
    gc.collect()
    err = capfd.readouterr().err
    assert "Exception ignored" not in err and "BufferError" not in err


def test_registry_engine_defaults_to_processes_and_matches_scheduler_rows():
    """`repro.api.run(RunSpec(engine="scheduler-sharded", shards=k))` end to end."""
    rows = {}
    for engine, shards in (
        ("scheduler", None),
        ("scheduler-sharded", 2),
        ("scheduler-sharded", 4),
    ):
        spec = RunSpec(
            engine=engine,
            protocol="stno-bfs",
            network=NetworkSpec(family="random_connected", size=9, seed=8),
            daemon="distributed",
            seed=21,
            shards=shards,
        )
        rows[(engine, shards)] = run(spec).row
    assert rows[("scheduler", None)] == rows[("scheduler-sharded", 2)]
    assert rows[("scheduler", None)] == rows[("scheduler-sharded", 4)]
    assert rows[("scheduler", None)]["converged"]


def test_dynamic_topology_scenario_through_forked_workers():
    """churn exercises set_network: networks and rebuilt ghosts cross the pipe."""
    reports = {}
    for key, factory in (
        ("plain", None),
        ("sharded", None),
    ):
        network = generators.random_connected(8, extra_edge_probability=0.3, seed=3)
        if key == "sharded":
            from functools import partial

            factory = partial(ShardedScheduler, shards=3, mode="fork")
        reports[key] = ScenarioRunner(
            network,
            build_dftno(),
            build_scenario("churn"),
            daemon=make_daemon("distributed"),
            seed=7,
            scheduler_factory=factory,
        ).run()
    assert reports["plain"].as_row() == reports["sharded"].as_row()
    assert reports["plain"].events == reports["sharded"].events


def test_blackout_scenario_routes_multi_crash_across_shards():
    """MultiCrash victims span blocks; rejoin states route to owners + ghosts."""
    reports = {}
    for incremental, factory in ((True, None), (None, "sharded")):
        network = generators.random_connected(9, extra_edge_probability=0.3, seed=5)
        if factory == "sharded":
            from functools import partial

            factory = partial(ShardedScheduler, shards=3, mode="fork")
        reports[incremental] = ScenarioRunner(
            network,
            build_dftno(),
            build_scenario("blackout"),
            daemon=make_daemon("distributed"),
            seed=11,
            scheduler_factory=factory,
        ).run()
    assert reports[True].as_row() == reports[None].as_row()
    assert {record.kind for record in reports[True].events} == {"multi_crash"}
