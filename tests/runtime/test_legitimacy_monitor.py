"""Lockstep oracle suite for the incremental legitimacy monitor.

Every scheduler owns a :class:`~repro.runtime.legitimacy.LegitimacyMonitor`
that keeps each protocol layer's verdict off the configuration's change
journal.  The reference predicates (``Protocol.legitimate``) stay the oracle:
an observer compares every layer's maintained verdict with its reference
predicate after every step and every scenario mutation, across every shipped
layer, the central/distributed/synchronous daemons, the scenario library and
the ``scheduler``, ``scheduler-fullscan``, ``scheduler-sharded`` (k=2) and
``scheduler-replay`` engines, plus the vectorized engine's batch-kernel steps
on the kernel-complete substrates.  A must-fail case proves the observer
bites: a monitor that re-evaluates only the changed processor, and not its
neighbours, is caught.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.dftno import build_dftno
from repro.core.stno import build_stno
from repro.errors import ProtocolError
from repro.graphs import generators
from repro.runtime.actions import Action
from repro.runtime.arrayview import HAVE_NUMPY
from repro.runtime.daemon import make_daemon
from repro.runtime.legitimacy import LegitimacyMonitor, LocalLegitimacy
from repro.runtime.observers import Observer
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import Scheduler
from repro.runtime.variables import int_variable
from repro.scenarios.library import build_scenario, scenario_names
from repro.scenarios.runner import ScenarioRunner
from repro.shard import ShardedScheduler
from repro.substrates.dijkstra_ring import DijkstraTokenRing
from repro.substrates.pif import PIFWave
from repro.substrates.spanning_tree import BFSSpanningTree

DAEMONS = ("central", "distributed", "synchronous")

#: Stacks covering every shipped layer: token circulation and the DFTNO
#: orientation layer; the BFS tree, the DFS-tree overlay and the STNO layer;
#: PIF waves; Dijkstra's ring.  Each with a family it legally runs on.
STACKS = {
    "dftno": (build_dftno, "random_connected"),
    "stno-bfs": (partial(build_stno, tree="bfs"), "random_connected"),
    "stno-dfs": (partial(build_stno, tree="dfs"), "random_connected"),
    "pif": (PIFWave, "random_tree"),
    "dijkstra-ring": (DijkstraTokenRing, "ring"),
}

#: PIF needs a tree and Dijkstra's ring a cycle, so link churn (which adds
#: and removes links) does not apply to them.
FIXED_TOPOLOGY = {"pif", "dijkstra-ring"}

ENGINES = ("scheduler", "scheduler-fullscan", "scheduler-sharded", "scheduler-replay")

CELLS = [
    (stack, scenario)
    for stack in sorted(STACKS)
    for scenario in scenario_names()
    if not (stack in FIXED_TOPOLOGY and scenario == "churn")
]


class LockstepOracle(Observer):
    """Compares every layer's monitor verdict with its reference predicate.

    Observer failures are isolated from the run, so mismatches are recorded
    rather than raised; the test asserts on :attr:`mismatches`.
    """

    def __init__(self) -> None:
        self.checks = {"run start": 0, "step": 0, "mutation": 0}
        self.mismatches: list[str] = []

    def _compare(self, source, when: str, detail: str = "") -> None:
        self.checks[when] += 1
        for layer, verdict in source.legitimacy.verdicts().items():
            reference = layer.legitimate(source.network, source.configuration)
            if verdict != reference:
                self.mismatches.append(
                    f"{when} {detail} (step {source.steps_executed}): layer "
                    f"{layer.name!r} monitor={verdict} reference={reference}"
                )

    def on_run_start(self, source, payload) -> None:
        self._compare(source, "run start")

    def on_step(self, source, record) -> None:
        self._compare(source, "step")

    def on_mutation(self, source, mutation) -> None:
        self._compare(source, "mutation", mutation["kind"])


def _scenario_run(stack, scenario, daemon, engine, observers):
    factory, family = STACKS[stack]
    kwargs = {}
    if engine == "scheduler-fullscan":
        kwargs["scheduler_factory"] = partial(Scheduler, incremental=False)
    elif engine == "scheduler-sharded":
        kwargs["scheduler_factory"] = partial(ShardedScheduler, shards=2, mode="inline")
    return ScenarioRunner(
        generators.family(family, 7, seed=5),
        factory(),
        build_scenario(scenario),
        daemon=make_daemon(daemon),
        seed=9,
        observers=observers,
        **kwargs,
    ).run()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("stack,scenario", CELLS)
def test_monitor_verdicts_equal_the_reference_predicates(
    stack, scenario, daemon, engine, tmp_path
):
    oracle = LockstepOracle()
    if engine == "scheduler-replay":
        from repro.obs import FlightRecorder
        from repro.replay import ReplayRun

        log = tmp_path / "run.flight.jsonl"
        recorder = FlightRecorder(log)
        _scenario_run(stack, scenario, daemon, "scheduler", (recorder,))
        recorder.close()
        report = ReplayRun(log, protocol=STACKS[stack][0](), observers=(oracle,)).run()
        assert report.verified
    else:
        _scenario_run(stack, scenario, daemon, engine, (oracle,))
    assert oracle.mismatches == []
    # Every scenario mutates the run and steps through its recoveries.
    assert oracle.checks["step"] > 0 and oracle.checks["mutation"] > 0


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed (the vectorized extra)")
@pytest.mark.parametrize(
    "stack,scenario",
    [("bfs-tree", scenario) for scenario in scenario_names()]
    + [cell for cell in CELLS if cell[0] == "dijkstra-ring"],
)
def test_vectorized_kernel_steps_keep_the_monitor_in_lockstep(stack, scenario):
    """Batch-kernel steps (synchronous daemon) commit through the same journal.

    Kernels engage only when they cover every action, so the stacks are the
    two kernel-complete substrates.
    """
    from repro.runtime.vectorized import VectorizedScheduler

    factory, family = {
        "bfs-tree": (BFSSpanningTree, "random_connected"),
        "dijkstra-ring": STACKS["dijkstra-ring"],
    }[stack]
    built = []

    def vectorized(*args, **kwargs):
        built.append(VectorizedScheduler(*args, **kwargs))
        return built[-1]

    oracle = LockstepOracle()
    ScenarioRunner(
        generators.family(family, 7, seed=5),
        factory(),
        build_scenario(scenario),
        daemon=make_daemon("synchronous"),
        seed=9,
        observers=(oracle,),
        scheduler_factory=vectorized,
    ).run()
    assert built[0].fast_steps > 0
    assert oracle.mismatches == []
    assert oracle.checks["step"] > 0 and oracle.checks["mutation"] > 0


def test_sharded_forked_workers_keep_the_monitor_in_lockstep():
    oracle = LockstepOracle()
    ScenarioRunner(
        generators.random_connected(8, extra_edge_probability=0.3, seed=3),
        build_dftno(),
        build_scenario("cascade"),
        daemon=make_daemon("distributed"),
        seed=7,
        observers=(oracle,),
        scheduler_factory=partial(ShardedScheduler, shards=2, mode="fork"),
    ).run()
    assert oracle.mismatches == []
    assert oracle.checks["step"] > 0 and oracle.checks["mutation"] > 0


# ---------------------------------------------------------------------------
# The oracle must bite
# ---------------------------------------------------------------------------
class _ChangedNodeOnlyMonitor(LegitimacyMonitor):
    """Broken on purpose: re-evaluates the changed processor, not its neighbours."""

    def _affected(self, node):
        return (node,)


def test_changed_node_only_invalidation_is_caught():
    network = generators.random_connected(8, extra_edge_probability=0.3, seed=3)
    oracle = LockstepOracle()
    scheduler = Scheduler(
        network, build_dftno(), daemon=make_daemon("central"), seed=7, observers=(oracle,)
    )
    scheduler.legitimacy = _ChangedNodeOnlyMonitor(scheduler)
    for _ in range(400):
        scheduler.step()
    assert oracle.mismatches, "a monitor blind to neighbours went unnoticed"
    # The reference audit every run result goes through bites as well.
    with pytest.raises(ProtocolError, match="reference predicate says"):
        scheduler.run(max_steps=scheduler.steps_executed)


# ---------------------------------------------------------------------------
# Monitor mechanics
# ---------------------------------------------------------------------------
class _Counter(Protocol):
    """Every processor counts up to 3; legitimate once every counter is 3."""

    name = "counter"

    def __init__(self, decomposed: bool = True) -> None:
        self.decomposed = decomposed
        self.terms = 0
        self.reference_calls = 0

    def variables(self, network, node):
        return [int_variable("ct_x", 0, 3, initial=0)]

    def actions(self, network, node):
        def guard(view):
            return view.read("ct_x") < 3

        def step(view):
            view.write("ct_x", view.read("ct_x") + 1)

        return [Action("CT-Inc", guard, step, layer=self.name)]

    def legitimate(self, network, configuration):
        self.reference_calls += 1
        return all(configuration.get(node, "ct_x") == 3 for node in network.nodes())

    def local_legitimacy(self, network):
        if not self.decomposed:
            return None

        def term(view):
            self.terms += 1
            return (int(view.read("ct_x") != 3),), None

        return LocalLegitimacy(term)


def test_audit_rejects_a_decomposition_that_disagrees_with_its_oracle():
    class Lying(_Counter):
        def local_legitimacy(self, network):
            return LocalLegitimacy(lambda view: ((0,), None))  # always legitimate

        def legitimate(self, network, configuration):
            return False

    scheduler = Scheduler(generators.ring(5), Lying(), seed=1)
    assert scheduler.legitimacy.legitimate()
    with pytest.raises(ProtocolError, match="reference predicate says False"):
        scheduler.legitimacy.audit()


def test_monitor_is_built_on_first_query_not_at_construction():
    protocol = _Counter()
    scheduler = Scheduler(generators.ring(6), protocol, seed=2)
    assert protocol.terms == 0
    scheduler.legitimacy.legitimate()
    assert protocol.terms == 6


def test_query_reevaluates_only_closed_neighbourhoods_of_changed_nodes():
    protocol = _Counter()
    network = generators.ring(8)
    scheduler = Scheduler(network, protocol, daemon=make_daemon("central"), seed=2)
    scheduler.legitimacy.legitimate()
    before = protocol.terms
    record = scheduler.step()
    (node,) = record.changed_nodes
    scheduler.legitimacy.legitimate()
    assert protocol.terms - before == 1 + network.degree(node)
    # Nothing changed since: a repeated query evaluates nothing.
    scheduler.legitimacy.legitimate()
    assert protocol.terms - before == 1 + network.degree(node)


def test_undecomposed_layer_falls_back_to_its_reference_predicate():
    protocol = _Counter(decomposed=False)
    scheduler = Scheduler(generators.ring(5), protocol, seed=4)
    result = scheduler.run_until_legitimate(max_steps=100)
    assert result.converged
    assert protocol.terms == 0 and protocol.reference_calls > 0
    calls = protocol.reference_calls
    scheduler.legitimacy.legitimate()
    assert protocol.reference_calls == calls  # no change, no re-evaluation


def test_monitor_rebuilds_on_set_configuration_and_set_network():
    network = generators.random_connected(8, extra_edge_probability=0.3, seed=3)
    protocol = build_dftno()
    scheduler = Scheduler(network, protocol, seed=5)
    scheduler.run_until_legitimate(max_steps=5_000)
    assert scheduler.legitimacy.legitimate()

    scheduler.set_configuration(protocol.random_configuration(network, seed=6))
    assert not protocol.legitimate(scheduler.network, scheduler.configuration)
    assert not scheduler.legitimacy.legitimate()

    scheduler.run_until_legitimate(max_steps=20_000)
    changed = generators.random_connected(8, extra_edge_probability=0.5, seed=4)
    scheduler.set_network(changed, reinitialize=(0, 1))
    assert scheduler.legitimacy.legitimate() == protocol.legitimate(
        changed, scheduler.configuration
    )


def test_substrate_verdicts_and_foreign_stacks():
    protocol = build_stno(tree="dfs")
    scheduler = Scheduler(generators.random_connected(7, seed=2), protocol, seed=1)
    scheduler.run_until_legitimate(max_steps=5_000)
    assert [layer.name for layer in scheduler.legitimacy.verdicts()] == [
        "dftc",
        "dfstree-overlay",
        "stno",
    ]
    substrate = protocol.layers()[-1].tree_layer
    assert scheduler.legitimacy.legitimate(substrate) == substrate.legitimate(
        scheduler.network, scheduler.configuration
    )
    with pytest.raises(ProtocolError, match="not a layer stack"):
        scheduler.legitimacy.legitimate(build_dftno())
