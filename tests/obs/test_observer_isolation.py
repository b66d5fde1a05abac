"""Observer fault isolation and the bounded trace ring buffer."""

from __future__ import annotations

import warnings

import pytest

from repro.api import NetworkSpec, RunSpec, run
from repro.graphs import generators
from repro.runtime.daemon import CentralDaemon
from repro.runtime.observers import (
    CallbackObserver,
    Observer,
    ObserverFailureWarning,
    TraceObserver,
    dispatch_safely,
)
from repro.runtime.scheduler import Scheduler
from repro.substrates.spanning_tree import BFSSpanningTree


class _Exploding(Observer):
    def __init__(self, hook: str = "on_step") -> None:
        self.calls = 0
        self._hook = hook

    def _boom(self, source, payload):
        self.calls += 1
        raise RuntimeError("observer bug")

    def __getattribute__(self, name):
        if name in ("on_step", "on_round", "on_event", "on_converged"):
            if name == object.__getattribute__(self, "_hook"):
                return object.__getattribute__(self, "_boom")
        return object.__getattribute__(self, name)


def test_dispatch_safely_warns_once_and_disables_the_failing_observer():
    seen: list[int] = []
    healthy = CallbackObserver(on_step=lambda source, record: seen.append(record))
    bad = _Exploding()
    observers: list[Observer] = [bad, healthy]
    with pytest.warns(ObserverFailureWarning, match="RuntimeError: observer bug"):
        dispatch_safely(observers, "on_step", None, 1)
    # Disabled: dropped from the list, never called again, no second warning.
    assert observers == [healthy]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dispatch_safely(observers, "on_step", None, 2)
    assert bad.calls == 1
    assert seen == [1, 2]


def test_dispatch_safely_lets_keyboard_interrupt_propagate():
    class Interrupting(Observer):
        def on_step(self, source, record):
            raise KeyboardInterrupt

    observers: list[Observer] = [Interrupting()]
    with pytest.raises(KeyboardInterrupt):
        dispatch_safely(observers, "on_step", None, 0)
    # Control-flow exceptions do not disable the observer.
    assert len(observers) == 1


def test_scheduler_survives_a_faulty_observer_and_still_converges():
    network = generators.ring(6)
    bad = _Exploding()
    scheduler = Scheduler(
        network,
        BFSSpanningTree(),
        daemon=CentralDaemon(),
        seed=1,
        observers=[bad],
    )
    with pytest.warns(ObserverFailureWarning):
        result = scheduler.run_until_legitimate(max_steps=200)
    assert result.converged
    assert bad.calls == 1
    # The scheduler's own built-in observers kept working throughout.
    assert scheduler.metrics.steps == result.steps


def test_faulty_observer_does_not_change_the_run_outcome():
    spec = RunSpec(network=NetworkSpec(family="ring", size=6, seed=1), seed=2)
    clean = run(spec)
    with pytest.warns(ObserverFailureWarning):
        watched = run(spec, observers=[_Exploding()])
    assert watched.row == clean.row


# ---------------------------------------------------------------------------
# Bounded tracing
# ---------------------------------------------------------------------------
def test_trace_observer_ring_buffer_keeps_the_newest_records():
    network = generators.random_connected(8, extra_edge_probability=0.3, seed=3)
    bounded = TraceObserver(max_records=5)
    unbounded = TraceObserver()
    scheduler = Scheduler(
        network,
        BFSSpanningTree(),
        daemon=CentralDaemon(),
        seed=2,
        observers=[bounded, unbounded],
    )
    scheduler.run_until_legitimate(max_steps=500)
    full = unbounded.trace.events()
    assert len(full) > 5
    assert bounded.trace.limit == 5
    assert bounded.trace.events() == full[-5:]
    assert bounded.trace.dropped == len(full) - 5
    assert unbounded.trace.dropped == 0


def test_trace_observer_max_records_is_the_one_bound():
    assert TraceObserver().trace.limit == 100_000
    assert TraceObserver(max_records=3).trace.limit == 3
    assert TraceObserver(max_records=None).trace.limit is None
