"""The fused-round protocol of the sharded engine (synchronous daemon).

Under the synchronous daemon the coordinator collapses each step's
``apply`` + ``execute`` round-trip pair into one ``round`` message: workers
fold the deltas, re-evaluate their frontier, speculatively execute every
enabled non-frozen block node and commit their own writes locally, and the
coordinator serves the subsequent selection from the stashed results.  The
speculation is only sound if every hazard path -- a mutation landing between
refresh and step, a daemon swap, a freeze -- falls back to a full mirror
reload, and if the owner-delta skipping never leaves a worker stale.  All of
that is pinned here against the single-process reference, inline and forked.
Fused rounds engage whenever the daemon is synchronous and no race checker is
attached; every other daemon takes the classic two-trip protocol.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.dftno import build_dftno
from repro.core.stno import build_stno
from repro.graphs import generators
from repro.runtime.daemon import CentralDaemon, SynchronousDaemon
from repro.runtime.scheduler import Scheduler
from repro.shard import ShardedScheduler
from repro.substrates.spanning_tree import BFSSpanningTree

fork_available = "fork" in multiprocessing.get_all_start_methods()
MODES = ("inline", "fork") if fork_available else ("inline",)


def _build_stno_bfs():
    return build_stno(tree="bfs")


def _pair(protocol_factory, n, seed, mode, shards=2, graph_seed=6):
    network = generators.random_connected(n, extra_edge_probability=0.3, seed=graph_seed)
    plain = Scheduler(
        network, protocol_factory(), daemon=SynchronousDaemon(), seed=seed
    )
    sharded = ShardedScheduler(
        network,
        protocol_factory(),
        daemon=SynchronousDaemon(),
        seed=seed,
        shards=shards,
        mode=mode,
    )
    return plain, sharded


def _lockstep(plain, sharded, max_steps=150):
    for _ in range(max_steps):
        assert plain.enabled_nodes() == sharded.enabled_nodes()
        record_plain, record_sharded = plain.step(), sharded.step()
        assert record_plain == record_sharded
        if record_plain is None:
            break
    assert plain.configuration == sharded.configuration
    assert plain.metrics == sharded.metrics


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "protocol_factory",
    (build_dftno, BFSSpanningTree, _build_stno_bfs),
    ids=("dftno", "bfs-tree", "stno-bfs"),
)
def test_fused_rounds_match_single_process(mode, protocol_factory):
    plain, sharded = _pair(protocol_factory, n=10, seed=6, mode=mode)
    with sharded:
        _lockstep(plain, sharded)


@pytest.mark.parametrize("mode", MODES)
def test_fused_and_classic_protocols_agree(mode):
    """Fusing is a pure perf shape, not a semantics one.

    A race checker keeps the synchronous daemon on the classic two-trip
    protocol, so the two runs below differ only in the round shape.
    """
    from repro.lint import ShardRaceChecker

    _, fused = _pair(build_dftno, n=10, seed=9, mode=mode)
    _, classic = _pair(build_dftno, n=10, seed=9, mode=mode)
    checker = ShardRaceChecker()
    classic.race_checker = checker
    fused_rounds = 0
    with fused, classic:
        for _ in range(150):
            fused.enabled_nodes()
            classic.enabled_nodes()
            fused_rounds += fused._round_results is not None
            assert classic._round_results is None
            record_fused, record_classic = fused.step(), classic.step()
            assert record_fused == record_classic
            if record_fused is None:
                break
        assert fused.configuration == classic.configuration
        assert fused.metrics == classic.metrics
    assert fused_rounds > 0
    assert checker.findings == []
    assert checker.mirror_audits > 0


def test_non_synchronous_daemon_never_fuses():
    """The fused path needs whole-set selection; central daemon uses classic."""
    network = generators.random_connected(10, seed=6)
    plain = Scheduler(network, build_dftno(), daemon=CentralDaemon(), seed=6)
    with ShardedScheduler(
        network,
        build_dftno(),
        daemon=CentralDaemon(),
        seed=6,
        shards=2,
        mode="inline",
    ) as sharded:
        _lockstep(plain, sharded)
        assert sharded._round_results is None


@pytest.mark.parametrize("mode", MODES)
def test_mutation_between_refresh_and_step_falls_back(mode):
    """An uncommitted speculative round must not survive a state mutation.

    ``enabled_nodes()`` triggers the fused refresh (workers speculate and
    self-commit); a scenario-style write landing before ``step()`` then
    invalidates the stashed results AND the workers' mirrors.  The engine
    must full-reload and still match a single-process run driven through
    the identical sequence.
    """
    plain, sharded = _pair(build_dftno, n=10, seed=7, mode=mode)
    with sharded:
        for round_index in range(60):
            plain.enabled_nodes(), sharded.enabled_nodes()
            if round_index % 3 == 1:
                # A scenario-style journal event between refresh and step:
                # mark_dirty re-journals the node without changing values, so
                # both runs stay value-identical while the sharded engine is
                # forced through its uncommitted-speculation guard.
                node = round_index % plain.network.n
                plain.configuration.mark_dirty(node)
                sharded.configuration.mark_dirty(node)
            record_plain, record_sharded = plain.step(), sharded.step()
            assert record_plain == record_sharded
            if record_plain is None:
                break
        assert plain.configuration == sharded.configuration


@pytest.mark.parametrize("mode", MODES)
def test_daemon_swap_between_refresh_and_step_falls_back(mode):
    """Selection no longer matching the stash must trigger the full rescan."""
    plain, sharded = _pair(build_dftno, n=10, seed=8, mode=mode)
    with sharded:
        for round_index in range(60):
            plain.enabled_nodes(), sharded.enabled_nodes()
            if round_index == 2:
                plain.set_daemon(CentralDaemon())
                sharded.set_daemon(CentralDaemon())
            elif round_index == 6:
                plain.set_daemon(SynchronousDaemon())
                sharded.set_daemon(SynchronousDaemon())
            record_plain, record_sharded = plain.step(), sharded.step()
            assert record_plain == record_sharded
            if record_plain is None:
                break
        assert plain.configuration == sharded.configuration


@pytest.mark.parametrize("mode", MODES)
def test_freeze_between_refresh_and_step_falls_back(mode):
    """Freezing after the speculative round shrinks the selection: rollback."""
    plain, sharded = _pair(build_dftno, n=10, seed=5, mode=mode)
    with sharded:
        frozen = False
        for round_index in range(80):
            plain.enabled_nodes(), sharded.enabled_nodes()
            if round_index == 1:
                target = plain.enabled_nodes()[0]
                plain.freeze([target]), sharded.freeze([target])
                frozen = True
            elif round_index == 4 and frozen:
                plain.unfreeze([target]), sharded.unfreeze([target])
            record_plain, record_sharded = plain.step(), sharded.step()
            assert record_plain == record_sharded
            if record_plain is None:
                break
        assert plain.configuration == sharded.configuration


@pytest.mark.parametrize("mode", MODES)
def test_set_network_mid_run_keeps_equivalence(mode):
    """Topology swaps rebuild mirrors without diverging."""
    plain, sharded = _pair(build_dftno, n=10, seed=2, mode=mode)
    replacement = generators.random_connected(10, seed=12)
    with sharded:
        for _ in range(3):
            record_plain, record_sharded = plain.step(), sharded.step()
            assert record_plain == record_sharded
        plain.set_network(replacement)
        sharded.set_network(replacement)
        _lockstep(plain, sharded)
