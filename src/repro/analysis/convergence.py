"""Stabilization-time measurements for the layered orientation protocols.

Both theorems are phrased relative to the underlying layer: DFTNO takes O(n)
steps *after the token circulation stabilizes* (Section 3.2.3) and STNO takes
O(h) steps *after the spanning tree stabilizes* (Section 4.2.3).  The
measurement therefore tracks two predicates along one execution:

* the moment the *substrate* legitimacy predicate starts holding for good, and
* the moment the full orientation specification (``SP1 /\\ SP2``) starts
  holding for good,

and reports both absolute values and their difference (the quantity the
theorems bound), in steps and in asynchronous rounds, from arbitrary initial
configurations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, asdict
from typing import Callable, Sequence

from repro.core.dftno import build_dftno
from repro.core.stno import build_stno
from repro.errors import ConvergenceError
from repro.graphs.network import RootedNetwork
from repro.graphs import generators
from repro.graphs.properties import radius_from_root
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import Daemon, DistributedDaemon
from repro.obs.instrument import Instrumentation
from repro.runtime.observers import Observer
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import Scheduler
from repro.substrates.spanning_tree import BFSSpanningTree, SpanningTreeProtocol


def step_budget(network: RootedNetwork) -> int:
    """Default step budget of a stabilization run: ``500 (n + m) + 3000``."""
    return 500 * (network.n + network.num_edges()) + 3_000


def closure_window(network: RootedNetwork) -> int:
    """Closure window ``3 (n + m) + 10``: at least one full token wave.

    Legitimacy must keep holding over this many consecutive observations
    (O(n + m) moves) before a run counts as stabilized, so a transiently
    satisfied specification is not mistaken for the stabilized one.
    """
    return 3 * (network.n + network.num_edges()) + 10


@dataclass(frozen=True)
class StabilizationSample:
    """One measured execution of a layered protocol."""

    protocol: str
    network: str
    n: int
    edges: int
    parameter: int
    daemon: str
    seed: int
    converged: bool
    total_steps: int
    total_rounds: int
    substrate_steps: int | None
    substrate_rounds: int | None
    full_steps: int | None
    full_rounds: int | None

    @property
    def overlay_steps(self) -> int | None:
        """Steps the orientation layer needed after the substrate stabilized."""
        if self.full_steps is None or self.substrate_steps is None:
            return None
        return max(0, self.full_steps - self.substrate_steps)

    @property
    def overlay_rounds(self) -> int | None:
        """Rounds the orientation layer needed after the substrate stabilized."""
        if self.full_rounds is None or self.substrate_rounds is None:
            return None
        return max(0, self.full_rounds - self.substrate_rounds)

    def as_row(self) -> dict[str, object]:
        """Flat dictionary (including the derived overlay columns) for tables."""
        row = asdict(self)
        row["overlay_steps"] = self.overlay_steps
        row["overlay_rounds"] = self.overlay_rounds
        return row


def measure_layered_stabilization(
    network: RootedNetwork,
    protocol: Protocol,
    substrate: Protocol,
    daemon: Daemon | None = None,
    seed: int | None = None,
    max_steps: int | None = None,
    parameter: int | None = None,
    label: str | None = None,
    configuration: Configuration | None = None,
    observers: Sequence[Observer] = (),
    scheduler_factory: Callable[..., Scheduler] | None = None,
    instrumentation: Instrumentation | None = None,
) -> StabilizationSample:
    """Run ``protocol`` from an arbitrary configuration and time both predicates.

    ``substrate`` is the layer stack under the orientation layer (a sub-stack
    of ``protocol``).  The run goes through
    :meth:`~repro.runtime.scheduler.Scheduler.stabilize`, which reads the
    substrate's and the whole protocol's legitimacy from the scheduler's
    :class:`~repro.runtime.legitimacy.LegitimacyMonitor` at the start and
    after every step; each recorded time is the first step (and round) of the
    predicate's final streak.  The run ends once the full predicate has held
    for :func:`closure_window` consecutive observations, the start counting
    as one (``closure_window - 1`` steps), or when ``max_steps`` (default
    :func:`step_budget`) steps have run.  ``configuration``
    overrides the (default: arbitrary) starting configuration.  ``observers``
    receive every step/round notification plus ``on_converged`` with the
    finished sample.  ``scheduler_factory`` (default: the incremental
    :class:`~repro.runtime.scheduler.Scheduler`) picks the execution core --
    ``partial(Scheduler, incremental=False)`` for the ``scheduler-fullscan``
    differential-testing path, :class:`~repro.shard.ShardedScheduler` for
    ``scheduler-sharded``; a factory-built scheduler exposing ``close()`` is
    closed when the measurement ends.
    """
    rng = random.Random(seed)
    daemon = daemon or DistributedDaemon()
    scheduler = (scheduler_factory or Scheduler)(
        network,
        protocol,
        daemon=daemon,
        rng=rng,
        configuration=configuration,
        observers=observers,
        instrumentation=instrumentation,
    )
    try:
        # The start counts as one of the window's legitimate observations.
        streak = scheduler.stabilize(
            max_steps if max_steps is not None else step_budget(network),
            hold_steps=closure_window(network) - 1,
            substrate=substrate,
        )
        sample = StabilizationSample(
            protocol=label or protocol.name,
            network=network.name,
            n=network.n,
            edges=network.num_edges(),
            parameter=parameter if parameter is not None else network.n,
            daemon=daemon.name,
            seed=seed if seed is not None else -1,
            converged=streak.legitimate,
            total_steps=scheduler.steps_executed,
            total_rounds=scheduler.rounds_completed,
            substrate_steps=streak.substrate_step,
            substrate_rounds=streak.substrate_round,
            full_steps=streak.first_step,
            full_rounds=streak.first_round,
        )
        if sample.converged:
            scheduler.notify_converged(sample)
        return sample
    finally:
        closer = getattr(scheduler, "close", None)
        if closer is not None:
            closer()


def presettled_substrate_configuration(
    network: RootedNetwork,
    full_protocol: Protocol,
    substrate_protocol: Protocol,
    rng: random.Random,
    max_steps: int = 200_000,
) -> Configuration:
    """An arbitrary configuration of ``full_protocol`` whose substrate part is stabilized.

    The theorems of the thesis bound the orientation layers' stabilization time
    *after* the underlying protocol has stabilized; this helper produces the
    corresponding starting point: the substrate's variables carry a legitimate
    state (obtained by running the substrate alone), while the orientation
    layer's variables are arbitrary.
    """
    substrate_scheduler = Scheduler(
        network,
        substrate_protocol,
        daemon=DistributedDaemon(),
        configuration=substrate_protocol.initial_configuration(network),
        rng=random.Random(rng.randrange(1 << 30)),
    )
    substrate_result = substrate_scheduler.run_until_legitimate(max_steps=max_steps)
    if not substrate_result.converged:
        raise ConvergenceError(
            f"substrate {substrate_protocol.name!r} did not stabilize on {network.name}"
        )
    configuration = full_protocol.random_configuration(network, rng=rng)
    for node in network.nodes():
        for variable in substrate_protocol.variable_names(network, node):
            configuration.set(node, variable, substrate_result.configuration.get(node, variable))
    return configuration


def measure_dftno(
    network: RootedNetwork,
    daemon: Daemon | None = None,
    seed: int | None = None,
    max_steps: int | None = None,
    parameter: int | None = None,
    after_substrate: bool = False,
    observers: Sequence[Observer] = (),
    scheduler_factory: Callable[..., Scheduler] | None = None,
    instrumentation: Instrumentation | None = None,
) -> StabilizationSample:
    """Measure DFTNO on ``network``: token-layer and full-orientation stabilization.

    With ``after_substrate=True`` the run starts from a configuration in which
    the token layer is already legitimate (matching the phrasing of Theorem
    3.2.3: O(n) steps *after* the token circulation stabilizes) while the
    orientation variables are arbitrary.
    """
    protocol = build_dftno()
    token = protocol.base
    rng = random.Random(seed)

    configuration = None
    if after_substrate:
        configuration = presettled_substrate_configuration(network, protocol, token, rng)

    return measure_layered_stabilization(
        network,
        protocol,
        token,
        daemon=daemon,
        seed=seed,
        max_steps=max_steps,
        parameter=parameter,
        label="dftno",
        configuration=configuration,
        observers=observers,
        scheduler_factory=scheduler_factory,
        instrumentation=instrumentation,
    )


def measure_stno(
    network: RootedNetwork,
    tree: str | SpanningTreeProtocol = "bfs",
    daemon: Daemon | None = None,
    seed: int | None = None,
    max_steps: int | None = None,
    parameter: int | None = None,
    after_substrate: bool = False,
    observers: Sequence[Observer] = (),
    scheduler_factory: Callable[..., Scheduler] | None = None,
    instrumentation: Instrumentation | None = None,
) -> StabilizationSample:
    """Measure STNO on ``network``: tree-layer and full-orientation stabilization.

    With ``after_substrate=True`` the run starts from a configuration in which
    the spanning tree is already constructed (matching the phrasing of Theorem
    4.2.1/4.2.3: O(h) steps *after* the tree stabilizes) while the orientation
    variables are arbitrary.
    """
    protocol = build_stno(tree=tree)
    overlay = None
    for layer in protocol.layers():
        if layer.name == "stno":
            overlay = layer
    if overlay is None:  # pragma: no cover - build_stno always adds the layer
        raise ConvergenceError("build_stno did not produce an STNO layer")
    tree_protocol = overlay.tree_layer
    rng = random.Random(seed)

    configuration = None
    if after_substrate:
        configuration = presettled_substrate_configuration(network, protocol, tree_protocol, rng)

    return measure_layered_stabilization(
        network,
        protocol,
        tree_protocol,
        daemon=daemon,
        seed=seed,
        max_steps=max_steps,
        parameter=parameter,
        label=protocol.name,
        configuration=configuration,
        observers=observers,
        scheduler_factory=scheduler_factory,
        instrumentation=instrumentation,
    )


# ----------------------------------------------------------------------
# Sweeps used by EXP-T1 and EXP-T2
# ----------------------------------------------------------------------
def sweep_dftno_sizes(
    sizes: Sequence[int],
    family: str = "random_connected",
    trials: int = 3,
    seed: int = 0,
    daemon_factory: Callable[[], Daemon] | None = None,
    after_substrate: bool = False,
) -> list[StabilizationSample]:
    """EXP-T1 driver: DFTNO stabilization across network sizes of one family."""
    samples: list[StabilizationSample] = []
    for size in sizes:
        for trial in range(trials):
            network = generators.family(family, size, seed=seed + 1_000 * trial + size)
            daemon = daemon_factory() if daemon_factory else None
            samples.append(
                measure_dftno(
                    network,
                    daemon=daemon,
                    seed=seed + 7 * trial + size,
                    parameter=size,
                    after_substrate=after_substrate,
                )
            )
    return samples


def _height_controlled_tree(n: int, height: int, seed: int) -> RootedNetwork:
    """A tree on ``n`` processors whose root-to-leaf height is exactly ``height``.

    A spine of ``height`` edges fixes the height; the remaining processors are
    attached uniformly at random to spine processors other than the last one,
    so they can never extend the height.
    """
    rng = random.Random(seed)
    if height < 1 or height > n - 1:
        raise ValueError("height must lie in 1..n-1")
    edges = [(i, i + 1) for i in range(height)]
    for node in range(height + 1, n):
        parent = rng.randrange(0, height)
        edges.append((parent, node))
    return RootedNetwork(n, edges, root=0, name=f"height_tree(n={n}, h={height}, seed={seed})")


def sweep_stno_heights(
    n: int,
    heights: Sequence[int],
    trials: int = 3,
    seed: int = 0,
    tree: str = "bfs",
    daemon_factory: Callable[[], Daemon] | None = None,
    after_substrate: bool = False,
) -> list[StabilizationSample]:
    """EXP-T2 driver: STNO stabilization across tree heights at fixed ``n``."""
    samples: list[StabilizationSample] = []
    for height in heights:
        for trial in range(trials):
            network = _height_controlled_tree(n, height, seed + 97 * trial + height)
            actual_height = radius_from_root(network)
            daemon = daemon_factory() if daemon_factory else None
            samples.append(
                measure_stno(
                    network,
                    tree=tree,
                    daemon=daemon,
                    seed=seed + 13 * trial + height,
                    parameter=actual_height,
                    after_substrate=after_substrate,
                )
            )
    return samples


# Exposed for tests of the sweep helper itself.
height_controlled_tree = _height_controlled_tree

__all__ = [
    "StabilizationSample",
    "closure_window",
    "step_budget",
    "measure_layered_stabilization",
    "measure_dftno",
    "measure_stno",
    "sweep_dftno_sizes",
    "sweep_stno_heights",
    "height_controlled_tree",
]
