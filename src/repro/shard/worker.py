"""The per-shard half of the sharded engine: local guard evaluation and
action execution over one node block.

A :class:`ShardWorker` owns one partition block.  It mirrors the coordinator's
configuration for ``block ∪ ghosts`` (the only state a block-local guard or
statement can read), keeps the block's slice of the incremental enabled-set,
and answers four messages:

* ``load``   -- replace the mirrored states wholesale and rescan every block
  guard (run start, corruption bursts, topology changes);
* ``apply``  -- fold a batch of changed node states in (pickled in the
  message: the written variables, or the whole replaced state) and
  re-evaluate only the dirty frontier that reaches into the block (the
  changed nodes plus their block-side neighbors), answering with the
  *enabled delta*;
* ``execute`` -- run the cached first-enabled action of the named block nodes
  against the beginning-of-step mirror and return their pending writes
  (writes are never applied locally -- they come back through ``apply``, the
  same routed path every other shard's writes take);
* ``round``  -- ``apply`` and ``execute`` fused into one round-trip: fold the
  deltas, re-evaluate the frontier, then speculatively execute *every*
  non-frozen enabled block node against the updated (beginning-of-step)
  mirror -- and locally commit the resulting writes to the mirror, so the
  coordinator never has to ship a node's own writes back to its owner.
  Sound only under the synchronous daemon, where the coordinator knows the
  whole enabled set will be selected; the coordinator keeps the reply's
  ``executed`` map, serves the selection from it without a second trip, and
  forces a full ``load`` whenever the actual selection diverges from the
  speculation (mid-step daemon swaps, configuration surgery);
* ``network`` -- swap the topology (dynamic-network scenarios): rebuild the
  block's action tables and ghost set; the coordinator follows up with a
  ``load``.

The same object runs in two harnesses: in-process (``mode="inline"``, used by
tests and as the portability fallback) and inside a forked worker process
(:func:`shard_process_main`), so the algorithm under test and the algorithm
in production are literally the same code.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Mapping, Sequence

from repro.errors import ReproError
from repro.graphs.network import RootedNetwork
from repro.obs.instrument import (
    Instrumentation,
    NULL_INSTRUMENTATION,
    PHASE_ACTION_EXEC,
    PHASE_GUARD_EVAL,
)
from repro.runtime.configuration import Configuration
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import first_enabled_action


class ShardError(ReproError):
    """A shard worker failed or answered out of protocol."""


class ShardWorker:
    """Executes one partition block's share of every computation step."""

    def __init__(
        self,
        shard_index: int,
        network: RootedNetwork,
        protocol: Protocol,
        block: Sequence[int],
        ghosts: Sequence[int],
        check_guard_locality: bool = False,
        instrument: bool = False,
    ) -> None:
        self.shard_index = shard_index
        self.network = network
        self.protocol = protocol
        self.block = tuple(block)
        self.ghosts = frozenset(ghosts)
        self.check_guard_locality = check_guard_locality
        #: Local phase timers and counters; cumulative for the worker's
        #: lifetime.  Summaries piggyback on ``apply`` replies and answer the
        #: ``perf`` command, so the coordinator's view is always the latest
        #: totals -- no extra round-trips on the hot path.
        self.instrumentation: Instrumentation = (
            Instrumentation() if instrument else NULL_INSTRUMENTATION
        )
        self._members = frozenset(self.block)
        self._actions = {
            node: tuple(protocol.actions(network, node)) for node in self.block
        }
        self.configuration = Configuration()
        #: node -> currently first-enabled Action, for block nodes only.
        self.enabled: dict[int, Any] = {}
        #: Block nodes whose guards a locally-committed ``round`` left
        #: unevaluated; folded into the next ``apply``'s frontier.
        self._pending_frontier: set[int] = set()

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def load(self, states: Mapping[int, Mapping[str, Any]]) -> dict[int, tuple[str, str]]:
        """Replace the mirrored states and rescan the whole block.

        Returns the full enabled map ``node -> (action name, layer)``.
        """
        instr = self.instrumentation
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        self.configuration = Configuration(states)
        self.enabled = {}
        self._pending_frontier = set()
        for node in self.block:
            action = self._first_enabled(node)
            if action is not None:
                self.enabled[node] = action
        if timed:
            instr.count("guards_evaluated", len(self.block))
            instr.count("full_rescans")
            instr.phase_time(PHASE_GUARD_EVAL, time.perf_counter() - started)
        return {node: (action.name, action.layer) for node, action in self.enabled.items()}

    def apply(
        self, deltas: Mapping[int, tuple[str, Mapping[str, Any]]]
    ) -> dict[str, Any]:
        """Fold changed node states in and re-evaluate the block-side frontier.

        ``deltas`` carries, for every changed node visible to this shard (own
        or ghost), either ``("vars", {name: value})`` -- just the written
        variables, the common case -- or ``("full", state)`` when the node's
        whole local state was replaced (a variable may have been dropped).
        The re-evaluated frontier is the changed block nodes plus the
        block-side neighbors of every changed node -- the sharded restriction
        of the incremental scheduler's dirty frontier.  Returns the enabled
        delta: ``set`` maps newly enabled (or action-changed) nodes to
        ``(name, layer)``, ``clear`` lists nodes that became disabled.  When
        instrumented, the reply also carries ``perf``: the worker's
        cumulative summary, piggybacked so the coordinator's per-shard view
        costs no extra round-trip.
        """
        instr = self.instrumentation
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        # Start from the frontier a locally-committed round left behind: its
        # writes are already in the mirror but their guards were not
        # re-evaluated (the cross-shard writes they may depend on only arrive
        # with this very delta batch).
        frontier: set[int] = self._pending_frontier
        self._pending_frontier = set()
        for node, (kind, values) in deltas.items():
            if kind == "full":
                self.configuration.replace_node(node, values)
            else:
                self.configuration.update_node(node, values)
            if node in self._members:
                frontier.add(node)
            frontier.update(self.network.neighbor_set(node) & self._members)
        updates: dict[int, tuple[str, str]] = {}
        cleared: list[int] = []
        for node in frontier:
            action = self._first_enabled(node)
            if action is None:
                if self.enabled.pop(node, None) is not None:
                    cleared.append(node)
            else:
                previous = self.enabled.get(node)
                self.enabled[node] = action
                if (
                    previous is None
                    or previous.name != action.name
                    or previous.layer != action.layer
                ):
                    updates[node] = (action.name, action.layer)
        reply: dict[str, Any] = {"set": updates, "clear": cleared}
        if timed:
            instr.count("guards_evaluated", len(frontier))
            instr.gauge("frontier_size", len(frontier))
            instr.gauge("delta_batch_size", len(deltas))
            instr.phase_time(PHASE_GUARD_EVAL, time.perf_counter() - started)
            reply["perf"] = instr.summary()
        return reply

    def execute(self, nodes: Sequence[int]) -> dict[int, tuple[str, dict[str, Any]]]:
        """Run the cached enabled action of each selected block node.

        Every view reads the mirror as it stands -- the beginning-of-step
        configuration, because writes only ever arrive through ``apply`` --
        which is exactly the composite-atomicity semantics of the
        single-process step.
        """
        instr = self.instrumentation
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        out: dict[int, tuple[str, dict[str, Any]]] = {}
        for node in nodes:
            action = self.enabled.get(node)
            if action is None:
                raise ShardError(
                    f"shard {self.shard_index} was asked to execute disabled "
                    f"processor {node}"
                )
            view = ProcessorView(node, self.network, self.configuration)
            action.execute(view)
            out[node] = (action.name, view.pending_writes)
        if timed:
            instr.count("actions_executed", len(out))
            instr.phase_time(PHASE_ACTION_EXEC, time.perf_counter() - started)
        return out

    def round_step(
        self,
        deltas: Mapping[int, tuple[str, Mapping[str, Any]]],
        frozen: Sequence[int] = (),
    ) -> dict[str, Any]:
        """``apply`` and ``execute`` fused into one message (``round``).

        Folds ``deltas`` exactly like :meth:`apply`, then speculatively runs
        the cached enabled action of every non-frozen enabled block node
        against the updated mirror -- which is the beginning-of-step
        configuration for the step about to happen.  The coordinator only
        sends this under the synchronous daemon, where the selection is known
        in advance to be exactly that node set, so nothing is wasted and the
        second (``execute``) round-trip disappears.

        The writes are then committed to the local mirror immediately (all
        executions first, composite atomicity): the coordinator applies the
        identical values to the authoritative configuration, so the next
        round's deltas can skip every node whose own writes were the only
        change -- interior writes stop crossing the pipe altogether.  The
        written nodes and their block-side neighbors are parked in the
        pending frontier; their guards re-evaluate on the next ``apply``,
        when the matching cross-shard boundary writes have arrived.  The
        reply extends the ``apply`` reply with ``executed``:
        ``node -> (action name, pending writes)``.
        """
        reply = self.apply(deltas)
        instr = self.instrumentation
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        skip = frozenset(frozen)
        targets = [
            (node, action) for node, action in self.enabled.items() if node not in skip
        ]
        executed: dict[int, tuple[str, dict[str, Any]]] = {}
        for node, action in targets:
            view = ProcessorView(node, self.network, self.configuration)
            action.execute(view)
            executed[node] = (action.name, view.pending_writes)
        pending = self._pending_frontier
        for node, (_name, writes) in executed.items():
            if writes:
                self.configuration.update_node(node, writes)
                pending.add(node)
                pending.update(self.network.neighbor_set(node) & self._members)
        reply["executed"] = executed
        if timed:
            instr.count("actions_executed", len(executed))
            instr.count("fused_round_trips")
            instr.phase_time(PHASE_ACTION_EXEC, time.perf_counter() - started)
            reply["perf"] = instr.summary()
        return reply

    def perf(self) -> dict[str, Any]:
        """The worker's cumulative instrumentation summary (``perf`` command)."""
        return self.instrumentation.summary()

    def mirror(self) -> dict[int, dict[str, Any]]:
        """Snapshot of the worker's mirrored states (``mirror`` command).

        The race checker (:mod:`repro.lint.racecheck`) compares this against
        the coordinator's authoritative journal: any divergence means a
        frontier-exchange gap -- a ghost (or even an own node) this shard
        would read stale.  Shallow per-node copies only; values are never
        mutated in place by either side.
        """
        present = set(self.configuration.nodes())
        out: dict[int, dict[str, Any]] = {}
        for node in list(self.block) + sorted(self.ghosts):
            if node in present:
                out[node] = dict(self.configuration.peek_state(node))
        return out

    def set_network(self, network: RootedNetwork, ghosts: Sequence[int]) -> None:
        """Swap the topology: new action tables, new ghost set.

        The enabled cache and the mirror are left stale on purpose; the
        coordinator always follows a topology change with a full ``load``.
        """
        self.network = network
        self.ghosts = frozenset(ghosts)
        self._actions = {
            node: tuple(self.protocol.actions(network, node)) for node in self.block
        }

    # ------------------------------------------------------------------
    # Dispatch (shared by the inline and the process harness)
    # ------------------------------------------------------------------
    def dispatch(self, message: tuple[str, ...]) -> Any:
        """Route one ``(command, *payload)`` message to its handler."""
        command = message[0]
        if command == "load":
            return self.load(message[1])
        if command == "apply":
            return self.apply(message[1])
        if command == "round":
            return self.round_step(message[1], message[2])
        if command == "execute":
            return self.execute(message[1])
        if command == "network":
            return self.set_network(message[1], message[2])
        if command == "perf":
            return self.perf()
        if command == "mirror":
            return self.mirror()
        raise ShardError(f"unknown shard command {command!r}")

    def _first_enabled(self, node: int):
        return first_enabled_action(
            node,
            self.network,
            self.configuration,
            self._actions[node],
            check_guard_locality=self.check_guard_locality,
        )


def shard_process_main(connection, factory) -> None:
    """The worker-process loop: build the worker, answer messages until stop.

    Runs in a *forked* child, so ``factory`` (and the protocol closures it
    captures) is inherited, never pickled; only the per-message payloads --
    plain node-state dictionaries, node lists, and the occasional network --
    cross the pipe.  A crash is reported back as ``("error", message,
    traceback)`` and ends the process; the coordinator re-raises it as a
    :class:`ShardError`.
    """
    worker = factory()
    try:
        while True:
            try:
                message = connection.recv()
            except EOFError:
                break
            if message[0] == "stop":
                break
            try:
                result = worker.dispatch(message)
            except BaseException as exc:  # surface the failure, then die
                connection.send(
                    ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
                )
                break
            connection.send(("ok", result))
    finally:
        connection.close()


__all__ = ["ShardError", "ShardWorker", "shard_process_main"]
