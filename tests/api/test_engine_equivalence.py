"""Equivalence of the incremental, full-scan and sharded scheduler cores.

The incremental enabled-set and the sharded multi-process engine are
optimizations, not semantics changes: for any substrate, daemon, scenario and
seed, the ``scheduler`` engine (dirty frontier re-evaluation), the
``scheduler-fullscan`` engine (historical rescan of every guard per step) and
the ``scheduler-sharded`` engine (k node blocks with frontier exchange and a
coordinator-held cross-shard daemon) must produce **identical** executions --
the same enabled set before every step, the same :class:`StepRecord` stream,
the same metrics, the same final configuration, and the same legitimacy
timeline -- stabilization step/round and closure verdict included, each
equal to the reference predicate's.

These tests drive every substrate x daemon combination (and every library
scenario, which exercises the mid-run mutation paths: ``set_configuration``,
``freeze``/``unfreeze`` + ``replace_node``, ``set_network``, ``set_daemon``)
through all paths in lockstep, with guard-locality checking switched on so
the invariant the dirty frontier relies on is asserted on every evaluation.
The sharded lockstep grids run the workers through the inline harness (the
identical worker objects and message protocol, synchronously); the forked
process boundary is covered by ``tests/shard/test_multiprocess.py`` and the
registry row checks below.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import RunSpec, NetworkSpec, run
from repro.core.dftno import build_dftno
from repro.core.stno import build_stno
from repro.graphs import generators
from repro.runtime.arrayview import HAVE_NUMPY
from repro.runtime.daemon import make_daemon
from repro.runtime.observers import Observer
from repro.runtime.scheduler import Scheduler
from repro.scenarios.library import build_scenario, scenario_names
from repro.scenarios.runner import ScenarioRunner
from repro.shard import ShardedScheduler
from repro.substrates.dijkstra_ring import DijkstraTokenRing
from repro.substrates.pif import PIFWave
from repro.substrates.spanning_tree import BFSSpanningTree, DFSSpanningTree
from repro.substrates.token_circulation import DepthFirstTokenCirculation

DAEMONS = ("central", "distributed", "synchronous", "adversarial")

#: Shard counts the acceptance criterion pins (k=1 is the degenerate case).
SHARD_COUNTS = (1, 2, 4)

#: Every substrate / protocol stack with a network family it legally runs on.
PROTOCOLS = {
    "bfs-tree": (BFSSpanningTree, "random_connected"),
    "dfs-tree": (DFSSpanningTree, "random_connected"),
    "token-circulation": (DepthFirstTokenCirculation, "random_connected"),
    "pif": (PIFWave, "random_tree"),
    "dijkstra-ring": (DijkstraTokenRing, "ring"),
    "dftno": (build_dftno, "random_connected"),
    "stno-bfs": (lambda: build_stno(tree="bfs"), "random_connected"),
    "stno-dfs": (lambda: build_stno(tree="dfs"), "random_connected"),
}


def _scheduler_builders(shards: "int | str | None"):
    """The reference core plus the core under test.

    ``shards=None`` compares incremental vs full scan (the PR-4 pairing);
    an integer compares incremental vs the sharded engine with that many
    blocks (inline harness: same workers, same messages, no processes);
    ``"vectorized"`` compares incremental vs the batch-kernel engine (which
    must not get guard-locality checking -- that debug mode deliberately
    disables the fast path this pairing exists to hold to account).
    """
    reference = partial(Scheduler, incremental=True, check_guard_locality=True)
    if shards is None:
        candidate = partial(Scheduler, incremental=False, check_guard_locality=True)
    elif shards == "vectorized":
        from repro.runtime.vectorized import VectorizedScheduler

        candidate = partial(VectorizedScheduler, incremental=True)
    else:
        candidate = partial(
            ShardedScheduler, shards=shards, mode="inline", check_guard_locality=True
        )
    return reference, candidate


def _lockstep(
    protocol_key: str,
    daemon: str,
    seed: int,
    n: int,
    max_steps: int = 150,
    shards: int | None = None,
) -> None:
    """Run two cores in lockstep and assert every observable is identical."""
    factory, family = PROTOCOLS[protocol_key]
    schedulers = []
    for build in _scheduler_builders(shards):
        schedulers.append(
            build(
                generators.family(family, n, seed=seed),
                factory(),
                daemon=make_daemon(daemon),
                seed=seed,
            )
        )
    reference_scheduler, candidate_scheduler = schedulers
    context = f"({protocol_key}, daemon={daemon}, seed={seed}, n={n}, shards={shards})"
    try:
        assert reference_scheduler.configuration == candidate_scheduler.configuration

        for _ in range(max_steps):
            assert (
                reference_scheduler.enabled_nodes() == candidate_scheduler.enabled_nodes()
            ), f"enabled sets diverged at step {reference_scheduler.steps_executed} {context}"
            record_reference = reference_scheduler.step()
            record_candidate = candidate_scheduler.step()
            assert record_reference == record_candidate, (
                f"step records diverged at step {candidate_scheduler.steps_executed} {context}"
            )
            if record_reference is None:
                break

        assert reference_scheduler.configuration == candidate_scheduler.configuration, context
        assert reference_scheduler.metrics == candidate_scheduler.metrics, context
        assert (
            reference_scheduler.rounds_completed == candidate_scheduler.rounds_completed
        ), context
    finally:
        closer = getattr(candidate_scheduler, "close", None)
        if closer is not None:
            closer()


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_incremental_equals_fullscan_for_every_substrate_and_daemon(protocol_key, daemon):
    """Fixed-seed lockstep equivalence across the whole substrate x daemon grid."""
    _lockstep(protocol_key, daemon, seed=11, n=7)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_sharded_equals_incremental_for_every_substrate_and_daemon(
    protocol_key, daemon, shards
):
    """Sharded lockstep equivalence: substrate x daemon x k in {1, 2, 4}."""
    _lockstep(protocol_key, daemon, seed=11, n=7, shards=shards)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    protocol_key=st.sampled_from(sorted(PROTOCOLS)),
    daemon=st.sampled_from(DAEMONS),
    n=st.integers(min_value=3, max_value=9),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_incremental_equals_fullscan_property(seed, protocol_key, daemon, n):
    """The lockstep equivalence holds for arbitrary seeds and sizes."""
    _lockstep(protocol_key, daemon, seed=seed, n=n, max_steps=80)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    protocol_key=st.sampled_from(sorted(PROTOCOLS)),
    daemon=st.sampled_from(DAEMONS),
    n=st.integers(min_value=3, max_value=9),
    shards=st.integers(min_value=1, max_value=4),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_sharded_equals_incremental_property(seed, protocol_key, daemon, n, shards):
    """Sharded equivalence holds for arbitrary seeds, sizes and shard counts."""
    _lockstep(protocol_key, daemon, seed=seed, n=n, max_steps=80, shards=shards)


#: The substrates that register batch kernels (the vectorized fast path);
#: every other substrate rides the fallback, covered by the kernel-less
#: fallback tests in ``tests/runtime/test_vectorized_scheduler.py``.
VECTORIZED_PROTOCOLS = ("bfs-tree", "dijkstra-ring")

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed (the vectorized extra)"
)


@needs_numpy
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", VECTORIZED_PROTOCOLS)
def test_vectorized_equals_incremental_for_kernel_substrates(protocol_key, daemon):
    """Vectorized lockstep equivalence across every daemon.

    Under the synchronous daemon the batch kernels serve the steps; under
    the other daemons the engine falls back to per-node dispatch -- either
    way the records must be identical to the incremental reference.
    """
    _lockstep(protocol_key, daemon, seed=11, n=7, shards="vectorized")


@needs_numpy
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    protocol_key=st.sampled_from(VECTORIZED_PROTOCOLS),
    daemon=st.sampled_from(DAEMONS),
    n=st.integers(min_value=3, max_value=9),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_vectorized_equals_incremental_property(seed, protocol_key, daemon, n):
    """Vectorized equivalence holds for arbitrary seeds and sizes."""
    _lockstep(protocol_key, daemon, seed=seed, n=n, max_steps=80, shards="vectorized")


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_sharded_runs_have_no_frontier_races(protocol_key, shards):
    """The variable-level race sanitizer rides the equivalence matrix.

    Every substrate, k in {1, 2, 4}: after every frontier exchange each
    worker's mirror must agree with the coordinator's journal, and every
    step's writes must come from the owning shard only -- zero findings
    (see ``repro.lint.racecheck``; the must-fail twin lives in
    ``tests/lint/test_racecheck.py``).
    """
    from repro.lint import ShardRaceChecker

    factory, family = PROTOCOLS[protocol_key]
    checker = ShardRaceChecker()
    with ShardedScheduler(
        generators.family(family, 7, seed=11),
        factory(),
        daemon=make_daemon("distributed"),
        seed=11,
        shards=shards,
        mode="inline",
        race_checker=checker,
    ) as scheduler:
        for _ in range(150):
            if scheduler.step() is None:
                break
    assert checker.findings == [], (
        f"races in ({protocol_key}, shards={shards}): "
        + "; ".join(f.message for f in checker.findings)
    )
    assert checker.mirror_audits > 0


@pytest.mark.parametrize("daemon", ("central", "distributed", "synchronous"))
@pytest.mark.parametrize("protocol", ("dftno", "stno-bfs"))
def test_engine_registry_rows_are_identical(protocol, daemon):
    """All four scheduler engines produce identical result rows.

    The whole-run check through the public entry point: same spec (modulo the
    engine name and shard knobs), same :class:`StabilizationSample` row,
    converged on every path.  The sharded rows run with real forked worker
    processes -- the engine's default mode; the synchronous-daemon cells
    drive the vectorized engine's fast path (stno-bfs carries the BFS
    kernels) and the sharded engine's fused round protocol.
    """
    engines = [
        ("scheduler", None),
        ("scheduler-fullscan", None),
        ("scheduler-sharded", 2),
        ("scheduler-sharded", 4),
    ]
    if HAVE_NUMPY:
        engines.append(("scheduler-vectorized", None))
    rows = {}
    for engine, shards in engines:
        spec = RunSpec(
            engine=engine,
            protocol=protocol,
            network=NetworkSpec(family="random_connected", size=9, seed=5),
            daemon=daemon,
            seed=13,
            shards=shards,
        )
        rows[(engine, shards)] = run(spec).row
    reference = rows[("scheduler", None)]
    for key, row in rows.items():
        assert row == reference, key
    assert reference["converged"]


# ---------------------------------------------------------------------------
# Replay fidelity: a recorded run must replay byte-identically
# ---------------------------------------------------------------------------
def _record_and_replay(
    protocol_key: str,
    daemon: str,
    seed: int,
    n: int,
    tmp_path,
    shards: int | None = None,
    max_steps: int = 150,
):
    """Record a run with the flight recorder, replay it, assert fidelity.

    The replay re-executes on the plain incremental scheduler regardless of
    the recording engine (the lockstep grids above hold the engines
    bit-identical), substituting the recorded daemon selections; every
    replayed :class:`StepRecord`, the metrics and the final configuration
    must match the log exactly.
    """
    from repro.obs import FlightRecorder
    from repro.replay import ReplayRun

    factory, family = PROTOCOLS[protocol_key]
    log_path = tmp_path / f"{protocol_key}-{daemon}-{shards}.flight.jsonl"
    recorder = FlightRecorder(log_path)
    network = generators.family(family, n, seed=seed)
    if shards is None:
        scheduler = Scheduler(
            network,
            factory(),
            daemon=make_daemon(daemon),
            seed=seed,
            observers=(recorder,),
        )
    else:
        scheduler = ShardedScheduler(
            network,
            factory(),
            daemon=make_daemon(daemon),
            seed=seed,
            shards=shards,
            mode="inline",
            observers=(recorder,),
        )
    try:
        for _ in range(max_steps):
            if scheduler.step() is None:
                break
    finally:
        closer = getattr(scheduler, "close", None)
        if closer is not None:
            closer()
        recorder.close()
    context = f"({protocol_key}, daemon={daemon}, shards={shards})"
    report = ReplayRun(log_path, protocol=factory()).run()
    assert report.verified, (
        f"replay diverged {context}: "
        + (report.divergence.format() if report.divergence else report.final_detail or "")
    )
    assert report.steps_replayed == scheduler.steps_executed, context
    assert report.final_ok is True, (context, report.final_detail)
    assert report.metrics_ok is True, context
    return report


@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_replayed_run_is_byte_identical_for_every_substrate_and_daemon(
    protocol_key, daemon, tmp_path
):
    """Record -> replay fidelity across the whole substrate x daemon grid."""
    _record_and_replay(protocol_key, daemon, seed=11, n=7, tmp_path=tmp_path)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_replayed_sharded_run_is_byte_identical(protocol_key, shards, tmp_path):
    """Sharded recordings (k in {1, 2, 4}, exchange entries and all) replay
    byte-identically on the single-process core."""
    _record_and_replay(
        protocol_key, "distributed", seed=11, n=7, tmp_path=tmp_path, shards=shards
    )


@pytest.mark.parametrize("shards", (None,) + SHARD_COUNTS)
@pytest.mark.parametrize("scenario_name", scenario_names())
def test_scenario_executions_are_identical_across_cores(scenario_name, shards):
    """Every library scenario replays identically on every scheduler core.

    Scenario events exercise every mid-run mutation path (corruption bursts
    via ``set_configuration``, crash/rejoin via ``freeze``/``unfreeze`` and
    ``replace_node``, multi-node crashes, link changes via ``set_network``,
    daemon switches), so identical reports here mean the dirty-set -- and,
    sharded, the frontier-routing -- bookkeeping survives all of them.
    ``shards=None`` is the historical full-scan pairing.
    """
    reports = {}
    for key, kwargs in (
        ("reference", {}),
        (
            "candidate",
            {"scheduler_factory": partial(Scheduler, incremental=False)}
            if shards is None
            else {
                "scheduler_factory": partial(
                    ShardedScheduler, shards=shards, mode="inline"
                )
            },
        ),
    ):
        network = generators.random_connected(8, extra_edge_probability=0.3, seed=3)
        reports[key] = ScenarioRunner(
            network,
            build_dftno(),
            build_scenario(scenario_name),
            daemon=make_daemon("distributed"),
            seed=7,
            **kwargs,
        ).run()
    assert reports["reference"].as_row() == reports["candidate"].as_row()
    assert reports["reference"].events == reports["candidate"].events


# ---------------------------------------------------------------------------
# Legitimacy: identical timelines, stabilization points and closure verdicts
# ---------------------------------------------------------------------------
class _LegitimacyTimeline(Observer):
    """``(step, round, monitor verdict, reference verdict)`` at start and per step."""

    def __init__(self) -> None:
        self.entries: list[tuple[int, int, bool, bool]] = []

    def _note(self, source) -> None:
        self.entries.append(
            (
                source.steps_executed,
                source.rounds_completed,
                source.legitimacy.legitimate(),
                source.protocol.legitimate(source.network, source.configuration),
            )
        )

    def on_run_start(self, source, payload) -> None:
        self._note(source)

    def on_step(self, source, record) -> None:
        self._note(source)

    def first_legitimate(self, column: int) -> tuple[int | None, int | None]:
        """Step/round from which ``column`` held through the end (``None``: never)."""
        first: tuple[int | None, int | None] = (None, None)
        for entry in self.entries:
            if not entry[column]:
                first = (None, None)
            elif first[0] is None:
                first = (entry[0], entry[1])
        return first


_MONITOR, _REFERENCE = 2, 3


@pytest.mark.parametrize("daemon", ("central", "distributed", "synchronous"))
@pytest.mark.parametrize("protocol_key", sorted(PROTOCOLS))
def test_first_legitimate_step_and_closure_verdict_are_identical_across_cores(
    protocol_key, daemon
):
    """``run_until_legitimate`` with a closure window: every core reports the
    same stabilization step/round and closure verdict, and both equal the
    reference predicate's own timeline."""
    factory, family = PROTOCOLS[protocol_key]
    network = generators.family(family, 7, seed=11)
    window = 3 * (network.n + network.num_edges()) + 10
    cores = {
        "scheduler": partial(Scheduler, incremental=True),
        "scheduler-fullscan": partial(Scheduler, incremental=False),
        "scheduler-sharded": partial(ShardedScheduler, shards=2, mode="inline"),
    }
    outcomes = {}
    for name, build in cores.items():
        timeline = _LegitimacyTimeline()
        scheduler = build(
            network, factory(), daemon=make_daemon(daemon), seed=11, observers=(timeline,)
        )
        try:
            result = scheduler.run_until_legitimate(max_steps=20_000, confirm_steps=window)
        finally:
            closer = getattr(scheduler, "close", None)
            if closer is not None:
                closer()
        assert result.converged, (name, protocol_key, daemon)
        stabilization = (result.first_legitimate_step, result.first_legitimate_round)
        assert stabilization == timeline.first_legitimate(_REFERENCE), name
        assert [entry[_MONITOR] for entry in timeline.entries] == [
            entry[_REFERENCE] for entry in timeline.entries
        ], name
        outcomes[name] = (stabilization, result.converged, result.steps, result.rounds)
    assert len(set(outcomes.values())) == 1, outcomes


@pytest.mark.parametrize("daemon", ("central", "distributed", "synchronous"))
@pytest.mark.parametrize("protocol", ("dftno", "stno-bfs", "stno-dfs"))
def test_legitimacy_timelines_and_rows_are_identical_across_engines(
    protocol, daemon, tmp_path
):
    """Through the public entry point: the ``scheduler``, ``scheduler-fullscan``
    and ``scheduler-sharded`` engines give identical rows (``full_steps`` /
    ``full_rounds`` are the first legitimate step/round) and identical
    per-step legitimacy timelines, and ``scheduler-replay`` of the recorded
    run retraces the same timeline."""
    from repro.replay import replay_spec

    log = tmp_path / "live.flight.jsonl"
    rows, timelines = {}, {}
    for engine, shards in (
        ("scheduler", None),
        ("scheduler-fullscan", None),
        ("scheduler-sharded", 2),
    ):
        timeline = _LegitimacyTimeline()
        spec = RunSpec(
            engine=engine,
            protocol=protocol,
            network=NetworkSpec(family="random_connected", size=8, seed=5),
            daemon=daemon,
            seed=13,
            shards=shards,
            record=str(log) if engine == "scheduler" else None,
        )
        row = dict(run(spec, observers=(timeline,)).row)
        row.pop("flight_log", None)
        rows[engine], timelines[engine] = row, timeline
    replayed = _LegitimacyTimeline()
    assert run(replay_spec(log), observers=(replayed,)).row["verified"]
    timelines["scheduler-replay"] = replayed

    reference = timelines["scheduler"]
    assert reference.first_legitimate(_REFERENCE) == (
        rows["scheduler"]["full_steps"],
        rows["scheduler"]["full_rounds"],
    )
    for engine, timeline in timelines.items():
        assert timeline.entries == reference.entries, engine
        assert [entry[_MONITOR] for entry in timeline.entries] == [
            entry[_REFERENCE] for entry in timeline.entries
        ], engine
    for engine, row in rows.items():
        assert row == rows["scheduler"], engine
    assert rows["scheduler"]["converged"]
