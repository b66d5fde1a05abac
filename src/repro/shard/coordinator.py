"""The sharded simulation engine's coordinator: a drop-in ``Scheduler``.

:class:`ShardedScheduler` partitions the network into node blocks
(:mod:`repro.shard.partition`), hands each block to a
:class:`~repro.shard.worker.ShardWorker` -- in a forked worker process by
default, in-process with ``mode="inline"`` -- and keeps every piece of
*global* step semantics to itself:

* the daemon and its random stream (one seeded cross-shard daemon selecting
  from the globally merged, sorted enabled set -- which is what makes a
  sharded run reproduce the single-process execution bit for bit);
* the authoritative :class:`~repro.runtime.configuration.Configuration`,
  where all writes land and all legitimacy predicates evaluate;
* round bookkeeping, metrics, traces and observers (observers therefore see
  one merged, globally ordered step stream, identical to a single-process
  run's).

What the workers own is the hot loop: guard re-evaluation and action
execution.  Between steps the coordinator exchanges only the *dirty
frontier*: each changed node's state goes to the shard that owns it and to
every shard that ghosts it (a boundary crossing), and each shard answers with
the delta of its block's enabled set.  Interior changes of one shard never
touch another shard's mailbox.  Every delta is a pickled per-node payload on
the worker's pipe -- the written variables, or the whole state when it was
replaced -- so the pipe is the only channel between coordinator and worker.

Because every mutation path of the base scheduler funnels through the
journaled configuration (step writes, ``set_configuration``, crash/rejoin
``replace_node``, ``set_network``), scenario fault injection routes to the
owning shard with no extra machinery -- the coordinator simply drains the
journal and ships the states.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import time
import weakref
from dataclasses import dataclass
from functools import partial
from typing import Any, Iterable, Mapping, Sequence

from repro.graphs.network import RootedNetwork
from repro.obs.instrument import Instrumentation, PHASE_FRONTIER_EXCHANGE
from repro.runtime.configuration import Configuration
from repro.runtime.daemon import Daemon, SynchronousDaemon
from repro.runtime.observers import Observer, dispatch_safely
from repro.runtime.protocol import Protocol
from repro.runtime.scheduler import Scheduler
from repro.shard.partition import DEFAULT_STRATEGY, Partition, partition_network
from repro.shard.worker import ShardError, ShardWorker, shard_process_main

#: Execution harnesses for the shard workers.
MODES = ("fork", "inline")


def default_mode() -> str:
    """``"fork"`` where the platform supports it, else ``"inline"``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "inline"


@dataclass(frozen=True)
class _RemoteAction:
    """The coordinator's stand-in for a worker-held enabled action.

    Carries exactly what global bookkeeping needs -- the action's name and
    layer for step records -- while execution stays with the worker that owns
    the real :class:`~repro.runtime.actions.Action`.
    """

    name: str
    layer: str


class _InlineShard:
    """A shard handle running its worker synchronously in-process.

    Same messages, same dispatch, no processes -- the portability fallback
    and the harness the equivalence tests grind, so the logic exercised
    inline is the logic that runs forked.
    """

    def __init__(self, index: int, factory) -> None:
        self.worker = factory()
        self._result: Any = None

    def send(self, message: tuple) -> None:
        self._result = ("ok", self.worker.dispatch(message))

    def recv(self) -> tuple:
        return self._result

    def close(self) -> None:  # nothing to tear down
        self._result = None


class _ProcessShard:
    """A shard handle talking to a forked worker process over a pipe.

    A worker that is gone -- crashed, or killed from outside -- surfaces as a
    :class:`ShardError` naming the shard on either side of the round trip: a
    refused send (the pipe's reader has exited) or an answerless receive.
    """

    def __init__(self, index: int, factory) -> None:
        self.index = index
        context = multiprocessing.get_context("fork")
        self.connection, child = context.Pipe()
        # daemon=True: a leaked coordinator can never leave orphan workers.
        self.process = context.Process(
            target=shard_process_main, args=(child, factory), daemon=True
        )
        self.process.start()
        child.close()

    def send(self, message: tuple) -> None:
        try:
            self.connection.send(message)
        except OSError as exc:
            raise ShardError(
                f"shard {self.index} worker process is gone (send failed: {exc})"
            ) from exc

    def recv(self) -> tuple:
        try:
            return self.connection.recv()
        except (EOFError, OSError) as exc:
            raise ShardError(
                f"shard {self.index} worker process died without answering"
            ) from exc

    def close(self) -> None:
        try:
            self.connection.send(("stop",))
        except (OSError, ValueError):
            pass  # already gone
        self.connection.close()
        self.process.join(timeout=2)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=2)


def _close_handles(handles: list) -> None:
    for handle in handles:
        try:
            handle.close()
        except Exception:  # pragma: no cover - teardown must never raise
            pass


class ShardedScheduler(Scheduler):
    """A :class:`~repro.runtime.scheduler.Scheduler` that executes sharded.

    Identical constructor surface plus:

    shards:
        Number of node blocks / worker processes (clamped to ``n``).
    partition:
        Partition strategy name (see
        :data:`repro.shard.partition.PARTITION_STRATEGIES`).
    mode:
        ``"fork"`` (default where available) runs each shard in a forked
        worker process; ``"inline"`` runs the identical shard workers
        synchronously in-process -- zero parallelism, full observability,
        used by tests and as the fallback on fork-less platforms.

    Frontier deltas always travel as pickled per-node payloads: the written
    variables of a changed node, or its whole state when it was replaced.
    Under the synchronous daemon the coming selection is the whole enabled
    set, so the per-step ``apply`` + ``execute`` round-trip pair collapses
    into one fused ``round`` message whose reply carries the speculative
    execution results, and workers commit their own block's writes locally
    so interior writes never cross the pipe again.  Every other daemon, and
    any run with a race checker attached, uses the classic two-trip protocol.

    Every observable -- enabled sets, step records, metrics, rounds, final
    configurations, convergence verdicts -- is bit-identical to a
    single-process run with the same arguments; the equivalence property
    suite (``tests/api/test_engine_equivalence.py``) holds it to that across
    every substrate, daemon, and library scenario.  Call :meth:`close` (or
    use the scheduler as a context manager) to reap the worker processes;
    a garbage-collected coordinator reaps them automatically.

    With instrumentation attached, the coordinator attributes its
    enabled-set maintenance to the ``frontier_exchange`` phase (payload
    routing, pipe round-trips, delta folding), counts the pickled frontier
    bytes in each direction, and merges the per-worker summaries that
    piggyback on ``apply`` replies, so a sharded run's ``perf`` reports
    per-shard guard-evaluation skew next to the exchange cost.
    """

    _refresh_phase = PHASE_FRONTIER_EXCHANGE

    def __init__(
        self,
        network: RootedNetwork,
        protocol: Protocol,
        daemon: Daemon | None = None,
        configuration: Configuration | None = None,
        seed: int | None = None,
        rng: random.Random | None = None,
        record_trace: bool = False,
        trace_limit: int | None = 100_000,
        observers: Sequence[Observer] = (),
        shards: int = 2,
        partition: str = DEFAULT_STRATEGY,
        mode: str | None = None,
        check_guard_locality: bool | None = None,
        instrumentation: Instrumentation | None = None,
        race_checker=None,
    ) -> None:
        super().__init__(
            network,
            protocol,
            daemon=daemon,
            configuration=configuration,
            seed=seed,
            rng=rng,
            record_trace=record_trace,
            trace_limit=trace_limit,
            observers=observers,
            incremental=True,
            check_guard_locality=check_guard_locality,
            instrumentation=instrumentation,
        )
        if mode is None:
            mode = default_mode()
        if mode not in MODES:
            raise ShardError(f"unknown shard mode {mode!r}; choose from {MODES}")
        self.mode = mode
        # Lamport-style causal stamping of the coordinator<->worker message
        # traffic, observable through the ``on_exchange`` observer hook.  The
        # stream is hot-path (every frontier exchange), so it is dispatched
        # only to observers that declare ``wants_exchanges`` (the flight
        # recorder does); with no tap registered, ``_command`` pays one
        # truthiness check.
        self._lamport = 0
        self._worker_clocks: dict[int, int] = {}
        self._exchange_taps: list[Observer] = [
            observer
            for observer in self._observers
            if getattr(observer, "wants_exchanges", False)
        ]
        #: Optional :class:`repro.lint.racecheck.ShardRaceChecker`; when set,
        #: every frontier exchange is followed by a mirror audit and every
        #: execute fan-out by a write-ownership audit.
        self.race_checker = race_checker
        self.partition: Partition = partition_network(network, shards, strategy=partition)
        #: ``node -> (action name, pending writes)`` speculatively computed by
        #: the last fused ``round`` exchange; consumed by the next
        #: ``_execute_selected`` instead of a second round-trip.
        self._round_results: dict[int, tuple[str, dict[str, Any]]] | None = None
        #: After a committed fused round: ``node -> writes`` the owning worker
        #: already folded into its own mirror, so the next exchange can skip
        #: shipping those values back to the owner (ghosting shards still get
        #: them).  Values are compared before skipping -- a scenario overwrite
        #: between steps invalidates the shortcut per node.
        self._owner_synced: dict[int, dict[str, Any]] | None = None
        #: Shards holding a pending (locally-committed but not re-evaluated)
        #: frontier; they must receive a message next exchange even when no
        #: deltas route to them.
        self._owners_pending: set[int] = set()
        handle_type = _ProcessShard if mode == "fork" else _InlineShard
        self._shards = []
        for index, block in enumerate(self.partition.blocks):
            factory = partial(
                ShardWorker,
                index,
                network,
                protocol,
                block,
                tuple(self.partition.ghosts(index)),
                self.check_guard_locality,
                self._instr.enabled,
            )
            self._shards.append(handle_type(index, factory))
        self._closed = False
        self._finalizer = weakref.finalize(self, _close_handles, list(self._shards))
        # super().__init__ left _needs_full_rescan=True, so the first
        # enabled-set access broadcasts the initial configuration ("load").

    # ------------------------------------------------------------------
    # Worker messaging
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of shard workers (== the partition's ``k``)."""
        return self.partition.k

    def _command(self, messages: Mapping[int, tuple]) -> dict[int, Any]:
        """Send one message per addressed shard, then collect every answer.

        All sends go out before the first receive, so forked workers run
        their share of the round concurrently; the inline harness answers
        synchronously inside ``send``.
        """
        if self._closed:
            raise ShardError("sharded scheduler already closed")
        taps = self._exchange_taps
        sent_stamps: dict[int, int] | None = None
        if taps:
            # Lamport send events: every outbound message ticks the
            # coordinator clock before any reply is received.
            sent_stamps = {}
            for index in messages:
                self._lamport += 1
                sent_stamps[index] = self._lamport
        failure: ShardError | None = None
        sent: list[int] = []
        for index, message in messages.items():
            try:
                self._shards[index].send(message)
            except ShardError as exc:
                failure = failure or exc
                continue
            sent.append(index)
        answers: dict[int, Any] = {}
        # Drain every outstanding reply even after a failure: leaving one
        # queued in a pipe would pair the next command with a stale answer.
        # A failed worker has already exited, so the coordinator is torn
        # down before the error propagates.
        for index in sent:
            try:
                reply = self._shards[index].recv()
            except ShardError as exc:
                failure = failure or exc
                continue
            if reply[0] != "ok":
                failure = failure or ShardError(
                    f"shard {index} failed: {reply[1]}\n--- worker traceback ---\n{reply[2]}"
                )
                continue
            answers[index] = reply[1]
        if failure is not None:
            self.close()
            raise failure
        if taps and sent_stamps is not None:
            self._record_exchanges(messages, answers, sent_stamps)
        return answers

    def _record_exchanges(
        self,
        messages: Mapping[int, tuple],
        answers: Mapping[int, Any],
        sent_stamps: Mapping[int, int],
    ) -> None:
        """Stamp and publish one exchange record per coordinator<->worker
        round trip.

        The worker side of the protocol is strictly request/reply, so its
        Lamport events (receive the command, send the answer) are fully
        determined coordinator-side: the per-shard clock merges the send
        stamp, ticks twice, and merges back into the coordinator clock on
        receipt.  Cross-shard ordering is recoverable from the stamps alone
        because every message flows through the coordinator.
        """
        for index, message in messages.items():
            worker_clock = max(self._worker_clocks.get(index, 0), sent_stamps[index]) + 2
            self._worker_clocks[index] = worker_clock
            self._lamport = max(self._lamport, worker_clock) + 1
            payload = message[1] if len(message) > 1 else None
            exchange = {
                "command": message[0],
                "shard": index,
                "sent": len(payload) if hasattr(payload, "__len__") else None,
                "lamport_sent": sent_stamps[index],
                "lamport_worker": worker_clock,
                "lamport_received": self._lamport,
            }
            answer = answers.get(index)
            if hasattr(answer, "__len__"):
                exchange["received"] = len(answer)
            dispatch_safely(self._exchange_taps, "on_exchange", self, exchange)

    def add_observer(self, observer: Observer) -> None:
        """Register ``observer``; exchange-stream taps self-select here too."""
        super().add_observer(observer)
        if getattr(observer, "wants_exchanges", False):
            self._exchange_taps.append(observer)

    def _states_payload(self, nodes: Iterable[int]) -> dict[int, Mapping[str, Any]]:
        # peek_state (no deep copy): the payload is pickled onto the pipe
        # immediately (fork) or shallow-copied by the worker's replace_node
        # (inline), and stored values are never mutated in place.
        return {node: self.configuration.peek_state(node) for node in nodes}

    def _delta_payload(
        self, nodes: Iterable[int], detail: Mapping[int, frozenset | None]
    ) -> dict[int, tuple[str, Mapping[str, Any]]]:
        """Per-node change payloads: written variables only, full state when
        the whole local state was replaced (so dropped variables propagate)."""
        payload: dict[int, tuple[str, Any]] = {}
        for node in nodes:
            names = detail[node]
            state = self.configuration.peek_state(node)
            if names is None:
                payload[node] = ("full", state)
            else:
                payload[node] = (
                    "vars",
                    {name: state[name] for name in names if name in state},
                )
        return payload

    # ------------------------------------------------------------------
    # Scheduler overrides: enabled-set maintenance and step execution
    # ------------------------------------------------------------------
    def _refresh_enabled(self) -> None:
        """Frontier exchange: route journaled changes, fold enabled deltas.

        Full rescans broadcast each shard's whole scope; otherwise each dirty
        node's state travels only to the shards whose scope contains it --
        interior changes stay with their owner, boundary-crossing changes
        additionally refresh the neighbors' ghosts.

        The whole exchange -- payload building, pipe round-trips, delta
        folding -- self-attributes to the ``frontier_exchange`` phase;
        per-worker summaries piggybacked on ``apply`` replies are filed under
        their shard index as they arrive.
        """
        instr = self._instr
        timed = instr.enabled
        started = time.perf_counter() if timed else 0.0
        if self._needs_full_rescan:
            self._round_results = None  # mirrors are being reloaded
            self._owner_synced = None
            self._owners_pending = set()
            self.configuration.drain_dirty()
            messages = {
                index: ("load", self._states_payload(self.partition.scope(index)))
                for index in range(self.partition.k)
            }
            if timed:
                instr.count("full_rescans")
                instr.count("frontier_messages", len(messages))
                instr.count(
                    "frontier_bytes_sent",
                    sum(len(pickle.dumps(message[1])) for message in messages.values()),
                )
            answers = self._command(messages)
            self._enabled = {}
            for enabled in answers.values():
                for node, (name, layer) in enabled.items():
                    self._enabled[node] = _RemoteAction(name, layer)
            self._needs_full_rescan = False
            self._invalidate_enabled_view()
            if timed:
                instr.count(
                    "frontier_bytes_received",
                    sum(len(pickle.dumps(reply)) for reply in answers.values()),
                )
                instr.phase_time(PHASE_FRONTIER_EXCHANGE, time.perf_counter() - started)
            if self.race_checker is not None:
                self.race_checker.audit_mirrors(self)
            return
        detail = self.configuration.drain_dirty_detail()
        if not detail:
            if timed:
                instr.phase_time(PHASE_FRONTIER_EXCHANGE, time.perf_counter() - started)
            return
        if self._round_results is not None:
            # A speculative round was never committed (the configuration was
            # mutated between an enabled-set refresh and the step that would
            # have consumed it): the worker mirrors have run ahead of the
            # authoritative state, so reload them wholesale.
            self._round_results = None
            self._owner_synced = None
            self._owners_pending = set()
            self._needs_full_rescan = True
            if timed:
                instr.phase_time(PHASE_FRONTIER_EXCHANGE, time.perf_counter() - started)
            self._refresh_enabled()
            return
        dirty = {node for node in detail if node in self._actions}
        # Under the synchronous daemon the coming selection is known to be
        # the whole enabled set, so fuse apply+execute into one ``round``
        # trip per shard and stash the speculative execution results.  The
        # race checker needs the two-phase shape for its audits, so it keeps
        # the classic path.
        fused = isinstance(self.daemon, SynchronousDaemon) and self.race_checker is None
        command = "round" if fused else "apply"
        synced = self._owner_synced
        self._owner_synced = None
        pending_owners = self._owners_pending
        self._owners_pending = set()
        frozen = tuple(self._frozen)
        messages: dict[int, tuple] = {}
        for index in range(self.partition.k):
            relevant = dirty & self.partition.scope(index)
            if synced:
                relevant = {
                    node
                    for node in relevant
                    if not self._owner_already_has(index, node, detail, synced)
                }
            if relevant or index in pending_owners:
                payload = self._delta_payload(relevant, detail)
                messages[index] = (
                    (command, payload, frozen) if fused else (command, payload)
                )
        if not messages:
            if timed:
                instr.phase_time(PHASE_FRONTIER_EXCHANGE, time.perf_counter() - started)
            return
        if fused:
            # Shards with untouched mirrors still hold enabled nodes that the
            # synchronous step will select; they join the round with an empty
            # delta purely to execute their share.
            for node in self._enabled:
                owner = self.partition.owner_of(node)
                if owner not in messages:
                    messages[owner] = ("round", {}, frozen)
        if timed:
            instr.count("frontier_messages", len(messages))
            instr.count(
                "frontier_bytes_sent",
                sum(len(pickle.dumps(message[1])) for message in messages.values()),
            )
            instr.gauge("dirty_set_size", len(dirty))
        answers = self._command(messages)
        for index, delta in answers.items():
            perf = delta.get("perf")
            if perf is not None:
                instr.record_shard(index, perf)
            for node in delta["clear"]:
                if self._enabled.pop(node, None) is not None:
                    self._invalidate_enabled_view()
            for node, (name, layer) in delta["set"].items():
                if node not in self._enabled:
                    self._invalidate_enabled_view()
                self._enabled[node] = _RemoteAction(name, layer)
        if fused:
            merged: dict[int, tuple[str, dict[str, Any]]] = {}
            for delta in answers.values():
                merged.update(delta.get("executed", {}))
            self._round_results = merged
        if timed:
            instr.count(
                "frontier_bytes_received",
                sum(len(pickle.dumps(reply)) for reply in answers.values()),
            )
            instr.phase_time(PHASE_FRONTIER_EXCHANGE, time.perf_counter() - started)
        if self.race_checker is not None:
            self.race_checker.audit_mirrors(self)

    def _owner_already_has(
        self,
        index: int,
        node: int,
        detail: Mapping[int, "frozenset | None"],
        synced: Mapping[int, Mapping[str, Any]],
    ) -> bool:
        """Whether shard ``index`` -- as ``node``'s owner -- already folded
        this delta by committing its own speculative writes.

        True only when every journaled variable carries exactly the value the
        worker committed; any later overwrite (scenario surgery between
        steps) or a whole-state replacement sends the node normally.
        """
        if self.partition.owner_of(node) != index:
            return False
        writes = synced.get(node)
        names = detail[node]
        if writes is None or names is None:
            return False
        state = self.configuration.peek_state(node)
        return all(
            name in writes and name in state and state[name] == writes[name]
            for name in names
        )

    def _execute_selected(
        self, enabled: Mapping[int, Any], selected: Sequence[int]
    ) -> tuple[list[tuple[int, str]], dict[int, dict[str, object]]]:
        """Fan the selected processors out to their owning shards.

        Each shard executes its share against its beginning-of-step mirror;
        the answers are re-assembled in the daemon's selection order, so the
        step record (and the write-application order) is byte-identical to
        the single-process step.

        When the last frontier exchange was a fused ``round``, the workers
        already executed every enabled node speculatively and the results sit
        in ``_round_results``; the selection is served from that stash --
        valid because the configuration has not changed since the exchange --
        and the second round-trip disappears entirely.
        """
        stash = self._round_results
        if stash is not None:
            self._round_results = None
            if len(stash) == len(selected) and all(node in stash for node in selected):
                executed = [(node, stash[node][0]) for node in selected]
                pending_writes = {node: stash[node][1] for node in selected}
                # Commit: the step will apply exactly these values, which the
                # owning workers already folded into their mirrors.
                self._owner_synced = {
                    node: writes for node, (_name, writes) in stash.items()
                }
                self._owners_pending = {
                    self.partition.owner_of(node) for node in stash
                }
                return executed, pending_writes
            # The selection diverged from the speculation (daemon swapped or
            # nodes frozen mid-step): the workers committed writes this step
            # will not apply, so reload their mirrors from the -- still
            # beginning-of-step -- authoritative configuration and execute
            # the real selection the classic way.
            self._owner_synced = None
            self._owners_pending = set()
            self._needs_full_rescan = True
            self._refresh_enabled()
        by_shard: dict[int, list[int]] = {}
        for node in selected:
            by_shard.setdefault(self.partition.owner_of(node), []).append(node)
        messages = {index: ("execute", nodes) for index, nodes in by_shard.items()}
        answers = self._command(messages)
        if self.race_checker is not None:
            self.race_checker.audit_execution(self, by_shard, answers)
        results: dict[int, tuple[str, dict[str, object]]] = {}
        for answer in answers.values():
            results.update(answer)
        executed = [(node, results[node][0]) for node in selected]
        pending_writes = {node: results[node][1] for node in selected}
        return executed, pending_writes

    def set_network(self, network: RootedNetwork, reinitialize: Iterable[int] = ()) -> None:
        """Dynamic topology change: re-derive ghosts, re-arm the workers.

        The blocks survive (processor count is invariant); only the cut --
        and with it every ghost set -- changes.  The base class queues a full
        rescan, so the next enabled-set access reloads every worker's mirror
        on the new topology.
        """
        super().set_network(network, reinitialize=reinitialize)
        self.partition = self.partition.rebind(network)
        self._round_results = None
        self._owner_synced = None
        self._owners_pending = set()
        self._command(
            {
                index: ("network", network, tuple(self.partition.ghosts(index)))
                for index in range(self.partition.k)
            }
        )

    def set_configuration(self, configuration: Configuration) -> None:
        """Replace the run's configuration (the base queues a full rescan)."""
        super().set_configuration(configuration)
        self._round_results = None
        self._owner_synced = None
        self._owners_pending = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop and reap the shard workers (idempotent).

        With instrumentation attached, each worker's final cumulative summary
        is drained first (best effort -- a crashed worker just keeps its last
        piggybacked snapshot), so ``load``/``execute`` time that never rode an
        ``apply`` reply still reaches the per-shard report.
        """
        if self._closed:
            return
        if self._instr.enabled:
            self._collect_worker_perf()
        self._closed = True
        self._finalizer.detach()
        _close_handles(self._shards)

    def _collect_worker_perf(self) -> None:
        for index, shard in enumerate(self._shards):
            try:
                shard.send(("perf",))
                reply = shard.recv()
            except Exception:  # worker already gone; keep the last snapshot
                continue
            if reply and reply[0] == "ok":
                self._instr.record_shard(index, reply[1])

    def __enter__(self) -> "ShardedScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedScheduler(protocol={self.protocol.name!r}, "
            f"network={self.network.name!r}, daemon={self.daemon.name!r}, "
            f"shards={self.partition.k}, mode={self.mode!r}, steps={self._step_index})"
        )


__all__ = ["MODES", "ShardedScheduler", "default_mode"]
