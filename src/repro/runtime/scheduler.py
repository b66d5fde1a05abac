"""The execution engine: computation steps, rounds, and convergence detection.

A *computation step* follows the paper's distributed-daemon semantics: the
daemon selects a non-empty subset of the enabled processors; each selected
processor atomically evaluates its first enabled action against the
configuration at the beginning of the step and its writes are applied at the
end of the step.

A *round* is the standard asynchronous round: the shortest suffix of the
execution in which every processor that was continuously enabled since the
beginning of the round has executed at least one action or has become
disabled.  Rounds are what the O(n) / O(h) stabilization bounds of the two
orientation protocols are measured in.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import GuardLocalityError, SchedulingError
from repro.graphs.network import RootedNetwork
from repro.obs.instrument import (
    Instrumentation,
    NULL_INSTRUMENTATION,
    PHASE_ACTION_EXEC,
    PHASE_DAEMON_SELECT,
    PHASE_GUARD_EVAL,
    PHASE_OBSERVER_DISPATCH,
)
from repro.runtime.actions import Action
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import Daemon, DistributedDaemon
from repro.runtime.legitimacy import LegitimacyMonitor
from repro.runtime.metrics import ExecutionMetrics
from repro.runtime.observers import MetricsObserver, Observer, TraceObserver, dispatch_safely
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.trace import Trace


def first_enabled_action(
    node: int,
    network: RootedNetwork,
    configuration: Configuration,
    actions: Sequence[Action],
    check_guard_locality: bool = False,
) -> Action | None:
    """The first action of ``node`` whose guard holds in ``configuration``.

    The single guard-evaluation primitive shared by the scheduler and the
    sharded execution workers (:mod:`repro.shard`), so both paths evaluate
    guards -- and enforce the guard-locality invariant in debug mode --
    identically.
    """
    if not check_guard_locality:
        view = ProcessorView(node, network, configuration)
        for action in actions:
            if action.enabled(view):
                return action
        return None
    # Debug path: diff the (node, variable) read log around each guard so a
    # violation is attributed to the exact action/layer/variable that tripped.
    view = ProcessorView(node, network, configuration, track_reads=True)
    allowed = set(network.neighbor_set(node))
    allowed.add(node)
    for action in actions:
        before = view.read_variables
        enabled = action.enabled(view)
        illegal = sorted(
            (source, name)
            for source, name in view.read_variables - before
            if source not in allowed
        )
        if illegal:
            reads = ", ".join(f"{name!r} of processor {source}" for source, name in illegal)
            raise GuardLocalityError(
                f"guard locality violated (RL004): guard of action {action.name!r} "
                f"(layer {action.layer!r}) on processor {node} read {reads} outside "
                f"its closed neighborhood {sorted(allowed)}",
                node=node,
                layer=action.layer,
                action=action.name,
                rule="RL004",
                reads=illegal,
            )
        if enabled:
            return action
    return None


@dataclass(frozen=True)
class MoveRecord:
    """One processor's move within a step: what executed and what it changed."""

    node: int
    action: str
    layer: str
    changes: Mapping[str, tuple[object, object]]  # variable -> (old, new)


@dataclass(frozen=True)
class StepRecord:
    """What happened during one computation step."""

    step: int
    round: int
    executed: tuple[tuple[int, str], ...]  # (node, action name) pairs
    changed_nodes: tuple[int, ...]
    moves: tuple[MoveRecord, ...] = ()


@dataclass
class RunResult:
    """Outcome of a (bounded) execution.

    Attributes
    ----------
    steps, moves, rounds:
        Totals over the executed portion.
    terminated:
        ``True`` when no action was enabled anymore (silent protocols).
    converged:
        ``True`` when the run reached what it was asked for: see
        :meth:`Scheduler.run` and :meth:`Scheduler.run_until_legitimate`.
    first_legitimate_step / first_legitimate_round:
        The step/round at which the protocol's legitimacy predicate first
        became true and then remained true until the end of the observed
        execution; ``None`` if it never did.
    configuration:
        The final configuration.
    metrics:
        Full per-node / per-action counters.
    trace:
        The recorded trace (``None`` unless tracing was requested).
    """

    steps: int
    moves: int
    rounds: int
    terminated: bool
    converged: bool
    first_legitimate_step: int | None
    first_legitimate_round: int | None
    configuration: Configuration
    metrics: ExecutionMetrics
    trace: Trace | None = None

    @property
    def stabilization_steps(self) -> int | None:
        """Alias for :attr:`first_legitimate_step` (readability in experiments)."""
        return self.first_legitimate_step

    @property
    def stabilization_rounds(self) -> int | None:
        """Alias for :attr:`first_legitimate_round`."""
        return self.first_legitimate_round


@dataclass(frozen=True)
class Streak:
    """Where :meth:`Scheduler.stabilize` stopped.

    ``first_step``/``first_round`` (and the ``substrate_`` pair) are where the
    final legitimacy streak began, ``None`` when the run ended illegitimate.
    """

    terminated: bool
    stopped: bool
    legitimate: bool
    first_step: int | None
    first_round: int | None
    substrate_step: int | None
    substrate_round: int | None


class Scheduler:
    """Drives a protocol on a network under a daemon.

    Parameters
    ----------
    network:
        The rooted network the protocol runs on.
    protocol:
        The protocol (possibly a layered composition).
    daemon:
        Scheduling adversary; defaults to the paper's distributed daemon.
    configuration:
        Starting configuration.  Defaults to an *arbitrary* configuration
        drawn from the variables' domains (the self-stabilization setting);
        pass ``protocol.initial_configuration(network)`` for a clean start.
    seed / rng:
        Randomness used by the daemon and by arbitrary initialization.
    record_trace:
        Whether to keep a :class:`~repro.runtime.trace.Trace` of every move.
    observers:
        Extra :class:`~repro.runtime.observers.Observer` instances notified of
        every step and completed round.  Metrics (and, with ``record_trace``,
        the trace) are themselves observers registered before these.
    incremental:
        With ``True`` (the default) the scheduler maintains a persistent
        enabled-set and re-evaluates guards only for the *dirty frontier* of
        each mutation -- the nodes whose variables changed plus their closed
        neighborhoods -- instead of rescanning all ``n`` processors per step.
        This is sound because a guard may read only its own node and its
        neighbors (:class:`~repro.runtime.processor.ProcessorView` enforces
        it), so results are bit-identical to ``incremental=False``, which
        keeps the historical full scan for differential testing (the
        ``scheduler-fullscan`` engine).
    check_guard_locality:
        Debug mode: track every configuration read during guard evaluation
        and raise :class:`~repro.errors.GuardLocalityError` (a
        :class:`~repro.errors.ProtocolError`, carrying the layer, action and
        offending variables) if a guard reads
        outside its closed neighborhood -- the invariant the incremental path
        relies on.  Defaults to the ``REPRO_DEBUG_GUARDS`` environment
        variable.
    instrumentation:
        An :class:`~repro.obs.Instrumentation` registry the step loop feeds
        with phase timers (guard-eval, daemon-select, action-exec,
        observer-dispatch), guard-evaluation counters, and dirty/enabled-set
        gauges.  Defaults to the shared no-op
        :data:`~repro.obs.NULL_INSTRUMENTATION`; the disabled path hoists its
        ``enabled`` flag once per call and skips all timing behind it.
    """

    #: The phase name :meth:`_refresh_enabled` attributes its time to; the
    #: sharded coordinator overrides its refresh with a frontier exchange and
    #: re-labels accordingly.
    _refresh_phase = PHASE_GUARD_EVAL

    def __init__(
        self,
        network: RootedNetwork,
        protocol: Protocol,
        daemon: Daemon | None = None,
        configuration: Configuration | None = None,
        seed: int | None = None,
        rng: random.Random | None = None,
        record_trace: bool = False,
        observers: Sequence[Observer] = (),
        incremental: bool = True,
        check_guard_locality: bool | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.network = network
        self.protocol = protocol
        self.daemon = daemon or DistributedDaemon()
        #: The daemon the run was configured with; :meth:`set_daemon` does not
        #: touch it, so scenario events can restore it after a switch.
        self.initial_daemon = self.daemon
        self.rng = rng or random.Random(seed)
        protocol.validate(network)
        self.daemon.reset()

        if configuration is None:
            configuration = protocol.random_configuration(network, rng=self.rng)
        self.configuration = configuration.copy()

        self._actions: dict[int, tuple[Action, ...]] = {
            node: tuple(protocol.actions(network, node)) for node in network.nodes()
        }
        # Metrics and trace are observers like any other; keeping them first in
        # the list preserves the historical update order (counters before any
        # external consumer sees the step).
        self._metrics_observer = MetricsObserver()
        self._trace_observer = TraceObserver() if record_trace else None
        self._observers: list[Observer] = [self._metrics_observer]
        if self._trace_observer is not None:
            self._observers.append(self._trace_observer)
        self._observers.extend(observers)

        self._step_index = 0
        self._round_index = 0
        self._round_pending: set[int] | None = None
        self._frozen: set[int] = set()

        self._instr = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION

        self.incremental = incremental
        if check_guard_locality is None:
            check_guard_locality = bool(os.environ.get("REPRO_DEBUG_GUARDS"))
        self.check_guard_locality = check_guard_locality
        # The persistent enabled-set of the incremental path: node -> first
        # enabled action, for every node *ignoring* frozen status (freezing
        # does not touch guards, so keeping crashed nodes cached makes
        # freeze/unfreeze invalidation-free; the accessors filter them).
        self._enabled: dict[int, Action] = {}
        self._needs_full_rescan = True
        # Maintained sorted/immutable view of the non-frozen enabled nodes.
        # Steps used to re-sort the enabled-set (and daemons to copy it) every
        # step, which is what flattened the incremental core's win near ~5x in
        # the scheduler-core bench; the view is rebuilt only when enabled-set
        # *membership* (or the frozen set) actually changes.
        self._enabled_order: tuple[int, ...] | None = None
        self._enabled_members: frozenset[int] | None = None

        #: The run's legitimacy verdicts, per layer, maintained off the
        #: configuration's change journal; every legitimacy question about
        #: the run (the run loops, the stabilization harness, the scenario
        #: runner, telemetry and health) is answered here.
        self.legitimacy = LegitimacyMonitor(self)

        # The one point where an observer can still see the *initial*
        # configuration (the flight recorder captures it here).
        dispatch_safely(self._observers, "on_run_start", self, None)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> ExecutionMetrics:
        """Per-run counters, accumulated by the built-in metrics observer."""
        return self._metrics_observer.metrics

    @property
    def trace(self) -> Trace | None:
        """The recorded trace, or ``None`` when tracing was not requested."""
        return self._trace_observer.trace if self._trace_observer is not None else None

    @property
    def observers(self) -> tuple[Observer, ...]:
        """Every registered observer (built-ins first)."""
        return tuple(self._observers)

    @property
    def instrumentation(self) -> Instrumentation:
        """The run's instrumentation registry (the shared no-op by default)."""
        return self._instr

    def add_observer(self, observer: Observer) -> None:
        """Register ``observer`` for subsequent step/round notifications."""
        self._observers.append(observer)

    def _notify_step(self, record: StepRecord) -> None:
        dispatch_safely(self._observers, "on_step", self, record)

    def _notify_mutation(self, kind: str, **payload: object) -> None:
        """Tell every observer about out-of-band state surgery.

        Mutations are rare (scenario events, test fixtures), so unlike the
        sharded exchange stream this always dispatches to the full observer
        list.
        """
        mutation = {"kind": kind}
        mutation.update(payload)
        dispatch_safely(self._observers, "on_mutation", self, mutation)

    def _notify_round(self, round_index: int) -> None:
        dispatch_safely(self._observers, "on_round", self, round_index)

    def notify_converged(self, result: object) -> None:
        """Tell every observer the run's stop condition was reached."""
        dispatch_safely(self._observers, "on_converged", self, result)

    # ------------------------------------------------------------------
    # Enabled actions
    # ------------------------------------------------------------------
    def enabled_actions(self) -> dict[int, Action]:
        """The first enabled action of every enabled processor.

        Frozen (crashed) processors are treated as disabled: whatever their
        guards evaluate to, the daemon never sees them.  On the incremental
        path this reads the maintained enabled-set (after folding in any
        journaled configuration changes); with ``incremental=False`` it is
        the historical full scan.
        """
        order, lookup, _ = self._enabled_view()
        return {node: lookup[node] for node in order}

    def _enabled_view(self) -> tuple[tuple[int, ...], Mapping[int, Action], frozenset[int]]:
        """The enabled set as ``(sorted order, node -> action, member set)``.

        The step loop's view of the enabled processors.  On the incremental
        path the order tuple and member set are maintained across steps and
        rebuilt only when membership changed, so neither the per-step sort nor
        the daemon's selection copies scale with the enabled count; the
        full-scan path keeps its historical rebuild-per-call behavior.
        """
        if self.incremental:
            self._refresh_enabled()
            if self._enabled_order is None:
                # The rebuild is enabled-set maintenance like the refresh
                # itself, so it books under the same phase.
                instr = self._instr
                timed = instr.enabled
                started = time.perf_counter() if timed else 0.0
                order = tuple(
                    sorted(node for node in self._enabled if node not in self._frozen)
                )
                self._enabled_order = order
                self._enabled_members = frozenset(order)
                if timed:
                    instr.phase_time(self._refresh_phase, time.perf_counter() - started)
            assert self._enabled_members is not None
            return self._enabled_order, self._enabled, self._enabled_members
        instr = self._instr
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        enabled: dict[int, Action] = {}
        for node in self.network.nodes():
            if node in self._frozen:
                continue
            action = self._first_enabled(node)
            if action is not None:
                enabled[node] = action
        order = tuple(enabled)  # network.nodes() iterates ascending
        if timed:
            instr.count("guards_evaluated", self.network.n - len(self._frozen))
            instr.phase_time(PHASE_GUARD_EVAL, time.perf_counter() - started)
        return order, enabled, frozenset(order)

    def enabled_nodes(self) -> tuple[int, ...]:
        """Identifiers of the processors with at least one enabled action."""
        return self._enabled_view()[0]

    def is_enabled(self, node: int) -> bool:
        """Whether ``node`` has an enabled action in the current configuration.

        Frozen (crashed) processors are never enabled, matching
        :meth:`enabled_actions`.  Always evaluates the guards directly, so it
        is correct on both the incremental and the full-scan path.
        """
        return node not in self._frozen and self._first_enabled(node) is not None

    def _first_enabled(self, node: int) -> Action | None:
        return first_enabled_action(
            node,
            self.network,
            self.configuration,
            self._actions[node],
            check_guard_locality=self.check_guard_locality,
        )

    def _invalidate_enabled(self) -> None:
        """Force a full guard rescan on the next enabled-set access."""
        self._needs_full_rescan = True
        self._invalidate_enabled_view()

    def _invalidate_enabled_view(self) -> None:
        """Drop the maintained sorted view (membership or frozen set changed)."""
        self._enabled_order = None
        self._enabled_members = None

    def _refresh_enabled(self) -> None:
        """Fold journaled configuration changes into the persistent enabled-set.

        The re-evaluated *dirty frontier* is the changed nodes plus their
        closed neighborhoods: a guard reads only its own node and its
        neighbors, so no other processor's enabled-status can have flipped.

        Attributes its own wall clock to the ``guard_eval`` phase (the
        sharded subclass re-labels it ``frontier_exchange``), so callers --
        including the nested re-check round bookkeeping performs -- never
        double-count it.
        """
        instr = self._instr
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        if self._needs_full_rescan:
            self.configuration.drain_dirty()
            self._enabled = {}
            for node in self.network.nodes():
                action = self._first_enabled(node)
                if action is not None:
                    self._enabled[node] = action
            self._needs_full_rescan = False
            self._invalidate_enabled_view()
            if timed:
                instr.count("guards_evaluated", self.network.n)
                instr.count("full_rescans")
                instr.phase_time(self._refresh_phase, time.perf_counter() - started)
            return
        dirty = self.configuration.drain_dirty()
        if not dirty:
            if timed:
                instr.phase_time(self._refresh_phase, time.perf_counter() - started)
            return
        frontier: set[int] = set()
        for node in dirty:
            if node not in self._actions:
                continue  # a foreign node id journaled by hand-built state
            frontier.add(node)
            frontier.update(self.network.neighbor_set(node))
        for node in frontier:
            action = self._first_enabled(node)
            if action is None:
                if self._enabled.pop(node, None) is not None:
                    self._invalidate_enabled_view()
            else:
                if node not in self._enabled:
                    self._invalidate_enabled_view()
                self._enabled[node] = action
        if timed:
            instr.count("guards_evaluated", len(frontier))
            instr.gauge("dirty_set_size", len(dirty))
            instr.gauge("frontier_size", len(frontier))
            instr.phase_time(self._refresh_phase, time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> StepRecord | None:
        """Execute one computation step; ``None`` if no processor is enabled."""
        instr = self._instr
        timed = instr.enabled
        step_started = time.perf_counter() if timed else 0.0

        order, enabled, members = self._enabled_view()
        if not order:
            return None

        tracer = instr.tracer if timed else None
        if self._round_pending is None:
            self._round_pending = set(order)
            if tracer is not None:
                tracer.current_round = tracer.span(
                    "round", kind="round", parent=tracer.current_run, round=self._round_index
                )
        step_span = (
            tracer.span(
                "step",
                kind="step",
                parent=tracer.current_round or tracer.current_run,
                step=self._step_index,
            )
            if tracer is not None
            else None
        )

        if timed:
            instr.gauge("enabled_set_size", len(order))
            mark = time.perf_counter()
        selected = self.daemon.select(order, self._step_index, self.rng)
        if not selected:
            raise SchedulingError(f"daemon {self.daemon.name!r} selected an empty set")
        invalid = [node for node in selected if node not in members]
        if invalid:
            raise SchedulingError(
                f"daemon {self.daemon.name!r} selected processors that are not enabled: {invalid}"
            )
        if timed:
            now = time.perf_counter()
            instr.phase_time(PHASE_DAEMON_SELECT, now - mark)
            mark = now

        executed, pending_writes = self._execute_selected(enabled, selected)

        # Apply all writes after every selected processor has read the
        # beginning-of-step configuration (composite atomicity).  apply_writes
        # journals the changed nodes, which is what feeds the incremental
        # path's dirty frontier.
        changed_nodes: list[int] = []
        moves: list[MoveRecord] = []
        action_names = dict(executed)
        for node, writes in pending_writes.items():
            changes = self.configuration.apply_writes(node, writes)
            if changes:
                changed_nodes.append(node)
            moves.append(
                MoveRecord(
                    node=node,
                    action=action_names[node],
                    layer=enabled[node].layer,
                    changes=changes,
                )
            )

        record = StepRecord(
            step=self._step_index,
            round=self._round_index,
            executed=tuple(executed),
            changed_nodes=tuple(changed_nodes),
            moves=tuple(moves),
        )
        if timed:
            now = time.perf_counter()
            instr.phase_time(PHASE_ACTION_EXEC, now - mark)
            instr.gauge("selected_set_size", len(selected))

        self._step_index += 1
        completed_round = self._advance_round(set(selected))
        if timed:
            mark = time.perf_counter()
        self._notify_step(record)
        if completed_round is not None:
            self._notify_round(completed_round)
        if timed:
            now = time.perf_counter()
            instr.phase_time(PHASE_OBSERVER_DISPATCH, now - mark)
            instr.count("steps_timed")
            instr.count("step_seconds", now - step_started)
            instr.count("moves_executed", len(selected))
            if step_span is not None:
                step_span.annotate(selected=len(selected), changed=len(changed_nodes))
                step_span.close()
            if completed_round is not None and tracer is not None:
                round_span = tracer.current_round
                if round_span is not None:
                    round_span.annotate(completed=completed_round)
                    round_span.close()
                tracer.current_round = None
        return record

    def _execute_selected(
        self, enabled: Mapping[int, Action], selected: Sequence[int]
    ) -> tuple[list[tuple[int, str]], dict[int, dict[str, object]]]:
        """Run the selected processors' actions against the beginning-of-step
        configuration and collect their writes (not yet applied).

        The execution half of a computation step, separated so an alternative
        execution layer (the sharded engine fans it out to worker processes)
        can replace *how* actions run without touching daemon selection,
        write application, or round bookkeeping.  Returns the ``(node, action
        name)`` pairs and the per-node pending writes, both in selection
        order.
        """
        executed: list[tuple[int, str]] = []
        pending_writes: dict[int, dict[str, object]] = {}
        for node in selected:
            action = enabled[node]
            view = ProcessorView(node, self.network, self.configuration)
            action.execute(view)
            pending_writes[node] = view.pending_writes
            executed.append((node, action.name))
        return executed, pending_writes

    def _advance_round(self, executed_nodes: set[int]) -> int | None:
        """Round bookkeeping: a round ends when every processor that was
        enabled at its start has executed or become disabled.  Returns the
        just-completed round index, or ``None``."""
        if self._round_pending is None:
            return None
        self._round_pending -= executed_nodes
        if self._round_pending:
            self._round_pending &= self._enabled_view()[2]
        if not self._round_pending:
            self._round_index += 1
            self._round_pending = None
            return self._round_index
        return None

    # ------------------------------------------------------------------
    # Whole runs
    # ------------------------------------------------------------------
    def stabilize(
        self,
        max_steps: int,
        hold_steps: int | None = None,
        stop_predicate: Callable[["Scheduler"], bool] | None = None,
        substrate: Protocol | None = None,
    ) -> Streak:
        """The one run loop: step while tracking since when legitimacy has held.

        Legitimacy of the protocol (and of the ``substrate`` sub-stack) is
        read from :attr:`legitimacy` at the start and after every step.  The
        run stops on termination, at ``max_steps``, when ``stop_predicate``
        holds, or once legitimacy has held for ``hold_steps`` steps since it
        last became true.  The final verdict is audited against the layers'
        reference predicates.
        """
        monitor = self.legitimacy
        first_step = first_round = None
        substrate_step = substrate_round = None
        terminated = stopped = False
        while True:
            if substrate is not None:
                if not monitor.legitimate(substrate):
                    substrate_step = substrate_round = None
                elif substrate_step is None:
                    substrate_step, substrate_round = self._step_index, self._round_index
            if not monitor.legitimate():
                first_step = first_round = None
            else:
                if first_step is None:
                    first_step, first_round = self._step_index, self._round_index
                if hold_steps is not None and self._step_index - first_step >= hold_steps:
                    break
            if stop_predicate is not None and stop_predicate(self):
                stopped = True
                break
            if self._step_index >= max_steps:
                break
            if self.step() is None:
                terminated = True
                break
        return Streak(
            terminated=terminated,
            stopped=stopped,
            legitimate=monitor.audit(),
            first_step=first_step,
            first_round=first_round,
            substrate_step=substrate_step,
            substrate_round=substrate_round,
        )

    def run(
        self,
        max_steps: int = 100_000,
        stop_predicate: Callable[["Scheduler"], bool] | None = None,
    ) -> RunResult:
        """Execute until termination, ``stop_predicate`` holds, or ``max_steps``.

        Converged means the predicate held, or the run terminated while
        legitimate.  The first legitimate step/round are where the final
        legitimacy streak began (see :meth:`stabilize`).
        """
        streak = self.stabilize(max_steps, stop_predicate=stop_predicate)
        return self._result(streak, streak.stopped or (streak.terminated and streak.legitimate))

    def run_until_legitimate(self, max_steps: int = 100_000, confirm_steps: int = 0) -> RunResult:
        """Run until legitimacy has held for ``confirm_steps`` steps, or ``max_steps``.

        The ``confirm_steps`` steps after legitimacy is reached are an
        empirical closure check: if legitimacy is lost during them the count
        restarts when it is regained, so ``first_legitimate_step`` is where
        the final streak began.  Converged is the audited legitimacy at the
        end, so a budget that runs out mid-confirmation while still
        legitimate reports converged.
        """
        streak = self.stabilize(max_steps, hold_steps=confirm_steps)
        return self._result(streak, streak.legitimate)

    def _result(self, streak: Streak, converged: bool) -> RunResult:
        return RunResult(
            steps=self._step_index,
            moves=self.metrics.moves,
            rounds=self._round_index,
            terminated=streak.terminated,
            converged=converged,
            first_legitimate_step=streak.first_step,
            first_legitimate_round=streak.first_round,
            configuration=self.configuration.copy(),
            metrics=self.metrics,
            trace=self.trace,
        )

    # ------------------------------------------------------------------
    # State manipulation (fault injection, dynamic networks)
    # ------------------------------------------------------------------
    def set_configuration(self, configuration: Configuration) -> None:
        """Replace the current configuration (e.g. after injecting faults).

        An arbitrary replacement may change any processor's state, so the
        whole enabled-set is invalidated.
        """
        self.configuration = configuration.copy()
        self._round_pending = None
        self._invalidate_enabled()
        self._notify_mutation("set_configuration", configuration=self.configuration)

    def set_daemon(self, daemon: Daemon) -> None:
        """Switch the scheduling adversary mid-run (daemon-switch scenarios).

        The new daemon starts with fresh bookkeeping; steps, rounds, metrics
        and the configuration are untouched.  Enabled-status depends only on
        the configuration, so the enabled-set stays valid.
        """
        daemon.reset()
        self.daemon = daemon
        self._notify_mutation("set_daemon", daemon=daemon.name)

    def set_network(
        self, network: RootedNetwork, reinitialize: Iterable[int] = ()
    ) -> None:
        """Replace the topology mid-run (dynamic-network scenarios).

        The new network must keep the processor count and the root: the
        processors survive, only links change.  Per-node action tables are
        rebuilt (guards capture port orders, which a link change shifts) and
        the processors in ``reinitialize`` -- typically the endpoints of the
        changed link -- have their whole local state redrawn arbitrarily from
        the protocol's domains on the *new* network, modelling the transient
        disruption a topology change inflicts on the processors that feel it.
        """
        if network.n != self.network.n:
            raise SchedulingError(
                f"dynamic network change cannot alter the processor count "
                f"({self.network.n} -> {network.n})"
            )
        if network.root != self.network.root:
            raise SchedulingError(
                f"dynamic network change cannot move the root "
                f"({self.network.root} -> {network.root})"
            )
        self.protocol.validate(network)
        self.network = network
        self._actions = {
            node: tuple(self.protocol.actions(network, node)) for node in network.nodes()
        }
        reinitialized = tuple(reinitialize)
        for node in reinitialized:
            self.configuration.replace_node(
                node, self.protocol.random_state(network, node, self.rng)
            )
        self._round_pending = None
        # New links mean new guard dependencies everywhere the port orders
        # shifted; rebuild the enabled-set from scratch.
        self._invalidate_enabled()
        # The redrawn states came from the rng, so the mutation payload must
        # carry them for a replay to reproduce the change without it.
        self._notify_mutation(
            "set_network",
            network=network,
            reinitialized={
                node: self.configuration.state_of(node) for node in reinitialized
            },
        )

    def freeze(self, nodes: Iterable[int]) -> None:
        """Crash ``nodes``: they stay disabled until :meth:`unfreeze`.

        The enabled-set keeps tracking frozen nodes (their guards are a pure
        function of the configuration, which freezing does not touch); the
        accessors simply stop reporting them, so no invalidation is needed.
        """
        frozen = tuple(nodes)
        for node in frozen:
            if not 0 <= node < self.network.n:
                raise SchedulingError(f"cannot freeze unknown processor {node}")
            self._frozen.add(node)
        self._round_pending = None
        self._invalidate_enabled_view()
        self._notify_mutation("freeze", nodes=tuple(sorted(frozen)))

    def unfreeze(self, nodes: Iterable[int]) -> None:
        """Let crashed ``nodes`` rejoin the computation."""
        thawed = tuple(nodes)
        self._frozen.difference_update(thawed)
        self._round_pending = None
        self._invalidate_enabled_view()
        self._notify_mutation("unfreeze", nodes=tuple(sorted(thawed)))

    def replace_node(self, node: int, values: Mapping[str, object]) -> None:
        """Overwrite one processor's whole local state (crash-rejoin events).

        Delegates to
        :meth:`~repro.runtime.configuration.Configuration.replace_node` -- the
        write is journaled, so the incremental enabled-set folds it in like
        any other dirty-frontier entry -- and notifies observers, which a
        direct ``scheduler.configuration.replace_node`` call would bypass.
        """
        self.configuration.replace_node(node, values)
        self._notify_mutation(
            "replace_node", node=node, state=self.configuration.state_of(node)
        )

    @property
    def frozen_nodes(self) -> frozenset[int]:
        """Processors currently crashed (excluded from daemon selection)."""
        return frozenset(self._frozen)

    @property
    def steps_executed(self) -> int:
        """Number of computation steps executed so far."""
        return self._step_index

    @property
    def rounds_completed(self) -> int:
        """Number of asynchronous rounds completed so far."""
        return self._round_index

    def __repr__(self) -> str:
        return (
            f"Scheduler(protocol={self.protocol.name!r}, network={self.network.name!r}, "
            f"daemon={self.daemon.name!r}, steps={self._step_index})"
        )


__all__ = [
    "MoveRecord",
    "Scheduler",
    "RunResult",
    "StepRecord",
    "Streak",
    "first_enabled_action",
]
