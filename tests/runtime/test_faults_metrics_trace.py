"""Unit tests for fault injection, metrics and traces."""

from __future__ import annotations

import pytest

from repro.graphs import generators
from repro.runtime.configuration import Configuration
from repro.runtime.faults import corrupt_configuration, random_configuration
from repro.runtime.metrics import (
    ExecutionMetrics,
    space_bits_per_node,
    space_summary,
    theoretical_orientation_bits,
)
from repro.runtime.trace import Trace, TraceEvent
from repro.substrates.dijkstra_ring import DijkstraTokenRing
from repro.core.dftno import build_dftno


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------
def test_random_configuration_covers_all_nodes_and_variables(small_ring):
    protocol = DijkstraTokenRing()
    config = random_configuration(protocol, small_ring, seed=3)
    for node in small_ring.nodes():
        assert config.has(node, "dk_x")


def test_corrupt_configuration_full_corruption_changes_something(small_ring):
    protocol = DijkstraTokenRing(k=50)
    base = protocol.initial_configuration(small_ring)
    corrupted = corrupt_configuration(base, protocol, small_ring, seed=1)
    assert corrupted != base
    assert base == protocol.initial_configuration(small_ring)  # original untouched


def test_corrupt_configuration_partial_touches_some_nodes(small_ring):
    protocol = DijkstraTokenRing(k=1000)
    base = protocol.initial_configuration(small_ring)
    corrupted = corrupt_configuration(
        base, protocol, small_ring, node_fraction=0.34, variable_fraction=1.0, seed=2
    )
    touched = [node for node in small_ring.nodes() if corrupted.get(node, "dk_x") != base.get(node, "dk_x")]
    assert 1 <= len(touched) <= 2 + 1  # roughly a third of 6 processors


def test_corrupt_configuration_zero_fraction_is_identity(small_ring):
    protocol = DijkstraTokenRing()
    base = protocol.initial_configuration(small_ring)
    corrupted = corrupt_configuration(base, protocol, small_ring, node_fraction=0.0, seed=3)
    assert corrupted == base


def test_corrupt_configuration_zero_variable_fraction_is_identity(small_ring):
    # Regression: variable_fraction=0.0 must corrupt *zero* variables even at
    # hit processors (a "hit at least one variable" floor only applies to
    # positive fractions).
    protocol = DijkstraTokenRing()
    base = protocol.initial_configuration(small_ring)
    corrupted = corrupt_configuration(
        base, protocol, small_ring, node_fraction=1.0, variable_fraction=0.0, seed=3
    )
    assert corrupted == base


def test_corrupt_configuration_tiny_positive_fractions_hit_at_least_one(small_ring):
    # The other bound: any positive fraction rounds up to one processor /
    # one variable rather than silently down to none.
    protocol = DijkstraTokenRing(k=10_000)
    base = protocol.initial_configuration(small_ring)
    changed = 0
    for seed in range(8):
        corrupted = corrupt_configuration(
            base, protocol, small_ring, node_fraction=0.01, variable_fraction=0.01, seed=seed
        )
        diff = base.diff(corrupted)
        assert len(diff) <= 1
        changed += len(diff)
    assert changed > 0  # with k=10000 a redraw virtually never collides


def test_corrupt_configuration_rejects_bad_fractions(small_ring):
    protocol = DijkstraTokenRing()
    base = protocol.initial_configuration(small_ring)
    with pytest.raises(ValueError):
        corrupt_configuration(base, protocol, small_ring, node_fraction=2.0)
    with pytest.raises(ValueError):
        corrupt_configuration(base, protocol, small_ring, variable_fraction=-0.5)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_execution_metrics_record_and_merge():
    a = ExecutionMetrics()
    a.record_move(1, "A", "layer1")
    a.record_move(1, "A", "layer1")
    a.record_move(2, "B", "layer2")
    b = ExecutionMetrics(steps=3, rounds=1)
    b.record_move(1, "B", "layer2")
    a.merge(b)
    assert a.moves == 4
    assert a.moves_per_node == {1: 3, 2: 1}
    assert a.moves_per_action == {"A": 2, "B": 2}
    assert a.moves_per_layer == {"layer1": 2, "layer2": 2}
    assert a.steps == 3 and a.rounds == 1
    as_dict = a.as_dict()
    assert as_dict["moves"] == 4


def test_space_bits_per_node_and_summary(small_ring):
    protocol = build_dftno()
    per_node = space_bits_per_node(protocol, small_ring)
    assert set(per_node) == set(small_ring.nodes())
    assert all(bits > 0 for bits in per_node.values())

    summary = space_summary(protocol, small_ring)
    assert summary["n"] == small_ring.n
    assert summary["max_bits_per_node"] == max(per_node.values())
    assert summary["total_bits"] == sum(per_node.values())
    assert set(summary["per_layer"]) == {"dftc", "dftno"}


def test_theoretical_orientation_bits_shape():
    small = generators.ring(8)
    large = generators.ring(64)
    dense = generators.complete(8)
    assert theoretical_orientation_bits(large) > theoretical_orientation_bits(small)
    assert theoretical_orientation_bits(dense) > theoretical_orientation_bits(small)


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def _event(step=0, node=0, action="A", layer="L", changes=None):
    return TraceEvent(step=step, round=0, node=node, action=action, layer=layer, changes=changes or {})


def test_trace_records_and_filters():
    trace = Trace()
    trace.record(_event(step=0, node=1, action="A", changes={"x": (0, 1)}))
    trace.record(_event(step=1, node=2, action="B"))
    assert len(trace) == 2
    assert len(trace.for_node(1)) == 1
    assert len(trace.for_action("B")) == 1
    assert len(trace.for_variable("x")) == 1
    assert list(iter(trace))[0].node == 1


def test_trace_limit_drops_oldest():
    trace = Trace(limit=3)
    for step in range(5):
        trace.record(_event(step=step))
    assert len(trace) == 3
    assert trace.dropped == 2
    assert trace.events()[0].step == 2
    assert "dropped=2" in repr(trace)


def test_trace_format_and_event_format():
    trace = Trace()
    trace.record(_event(step=3, node=7, action="Label", changes={"eta": (0, 4)}))
    trace.record(_event(step=4, node=8, action="Noop"))
    text = trace.format()
    assert "p7" in text and "Label" in text and "0 -> 4" in text
    assert "(no state change)" in trace.events()[1].format()
    assert "p8" in trace.format(last=1)
