"""Unit tests for the SP_NO specification checker."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baseline import centralized_orientation
from repro.core.specification import VAR_EDGE_LABELS, VAR_NAME, OrientationSpecification
from repro.graphs import generators
from repro.runtime.configuration import Configuration


def configuration_from_orientation(network, orientation) -> Configuration:
    return Configuration(
        {
            node: {
                VAR_NAME: orientation.names[node],
                VAR_EDGE_LABELS: dict(orientation.edge_labels[node]),
            }
            for node in network.nodes()
        }
    )


@pytest.fixture
def oriented_configuration(small_random):
    orientation = centralized_orientation(small_random)
    return configuration_from_orientation(small_random, orientation)


def test_specification_holds_on_valid_orientation(small_random, oriented_configuration):
    spec = OrientationSpecification()
    report = spec.check(small_random, oriented_configuration)
    assert report.sp1 and report.sp2 and report.holds
    assert report.violations == ()
    assert spec.holds(small_random, oriented_configuration)
    assert spec.sp1_holds(small_random, oriented_configuration)


def test_sp1_violation_duplicate_names(small_random, oriented_configuration):
    oriented_configuration.set(1, VAR_NAME, oriented_configuration.get(2, VAR_NAME))
    report = OrientationSpecification().check(small_random, oriented_configuration)
    assert not report.sp1
    assert any("SP1" in text for text in report.violations)


def test_sp1_violation_out_of_range_name(small_random, oriented_configuration):
    oriented_configuration.set(1, VAR_NAME, small_random.n + 3)
    report = OrientationSpecification().check(small_random, oriented_configuration)
    assert not report.sp1


def test_sp1_violation_non_integer_name(small_random, oriented_configuration):
    oriented_configuration.set(1, VAR_NAME, "three")
    report = OrientationSpecification().check(small_random, oriented_configuration)
    assert not report.sp1


def test_sp2_violation_wrong_label(small_random, oriented_configuration):
    node = 0
    neighbor = small_random.neighbors(node)[0]
    labels = oriented_configuration.get(node, VAR_EDGE_LABELS)
    labels[neighbor] = (labels[neighbor] + 1) % small_random.n
    oriented_configuration.set(node, VAR_EDGE_LABELS, labels)
    report = OrientationSpecification().check(small_random, oriented_configuration)
    assert report.sp1
    assert not report.sp2
    assert any("SP2" in text for text in report.violations)


def test_sp2_violation_missing_label_map(small_random, oriented_configuration):
    oriented_configuration.set(0, VAR_EDGE_LABELS, None)
    report = OrientationSpecification().check(small_random, oriented_configuration)
    assert not report.sp2


def test_effective_modulus_defaults_to_network_size(small_ring):
    spec = OrientationSpecification()
    assert spec.effective_modulus(small_ring) == small_ring.n
    assert OrientationSpecification(modulus=32).effective_modulus(small_ring) == 32


def test_extract_round_trips_orientation(small_random, oriented_configuration):
    spec = OrientationSpecification()
    extracted = spec.extract(small_random, oriented_configuration)
    assert extracted.is_valid(small_random)
    reference = centralized_orientation(small_random)
    assert extracted.names == reference.names


def test_extract_handles_broken_label_maps(small_random, oriented_configuration):
    oriented_configuration.set(0, VAR_EDGE_LABELS, "garbage")
    extracted = OrientationSpecification().extract(small_random, oriented_configuration)
    assert extracted.edge_labels[0][small_random.neighbors(0)[0]] is None
    assert not extracted.is_valid(small_random)


def test_custom_variable_names(small_ring):
    orientation = centralized_orientation(small_ring)
    config = Configuration(
        {
            node: {
                "myname": orientation.names[node],
                "mylabels": dict(orientation.edge_labels[node]),
            }
            for node in small_ring.nodes()
        }
    )
    spec = OrientationSpecification(name_variable="myname", labels_variable="mylabels")
    assert spec.holds(small_ring, config)


def test_report_holds_property():
    from repro.core.specification import SpecificationReport

    assert SpecificationReport(sp1=True, sp2=True).holds
    assert not SpecificationReport(sp1=True, sp2=False).holds
    assert not SpecificationReport(sp1=False, sp2=True).holds


# ---------------------------------------------------------------------------
# The fast predicates and the local terms agree with the reporting checker
# ---------------------------------------------------------------------------
def _corrupt(network, configuration, operation, node, value):
    """Apply one named corruption at ``node`` (``value`` seeds the choice)."""
    other = (node + 1 + value) % network.n
    neighbors = network.neighbors(node)
    labels = configuration.get(node, VAR_EDGE_LABELS)
    if operation == "name_out_of_range":
        configuration.set(node, VAR_NAME, network.n + value if value % 2 else -1 - value)
    elif operation == "name_not_int":
        configuration.set(node, VAR_NAME, ("three", None, 1.5, (value,))[value % 4])
    elif operation == "name_duplicate":
        configuration.set(node, VAR_NAME, configuration.get(other, VAR_NAME))
    elif operation == "name_shift":
        configuration.set(node, VAR_NAME, value % network.n)
    elif operation == "labels_not_dict":
        configuration.set(node, VAR_EDGE_LABELS, (None, [], 7, "garbage")[value % 4])
    elif operation == "labels_missing":
        trimmed = dict(labels) if isinstance(labels, dict) else {}
        trimmed.pop(neighbors[value % len(neighbors)], None)
        configuration.set(node, VAR_EDGE_LABELS, trimmed)
    elif operation == "labels_wrong":
        wrong = dict(labels) if isinstance(labels, dict) else {}
        neighbor = neighbors[value % len(neighbors)]
        wrong[neighbor] = (wrong.get(neighbor, 0) or 0) + 1 + value
        configuration.set(node, VAR_EDGE_LABELS, wrong)


class _Run:
    """The three attributes a legitimacy monitor reads from its owner."""

    def __init__(self, protocol, network, configuration):
        self.protocol, self.network, self.configuration = protocol, network, configuration


CORRUPTIONS = (
    "name_out_of_range",
    "name_not_int",
    "name_duplicate",
    "name_shift",
    "labels_not_dict",
    "labels_missing",
    "labels_wrong",
)


@given(
    network_seed=st.integers(min_value=0, max_value=500),
    size=st.integers(min_value=3, max_value=10),
    corruptions=st.lists(
        st.tuples(
            st.sampled_from(CORRUPTIONS),
            st.integers(min_value=0, max_value=99),
            st.integers(min_value=0, max_value=99),
        ),
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_holds_and_local_terms_agree_with_check_on_corrupted_configurations(
    network_seed, size, corruptions
):
    from repro.core.dftno import DFTNO
    from repro.runtime.legitimacy import LegitimacyMonitor

    network = generators.random_connected(size, extra_edge_probability=0.3, seed=network_seed)
    configuration = configuration_from_orientation(network, centralized_orientation(network))
    spec = OrientationSpecification()
    run = _Run(DFTNO(), network, configuration)  # the monitor holds its owner weakly
    monitor = LegitimacyMonitor(run)
    assert monitor.legitimate() and spec.holds(network, configuration)
    for operation, node, value in corruptions:
        _corrupt(network, configuration, operation, node % network.n, value)
        report = spec.check(network, configuration)
        assert spec.holds(network, configuration) == report.holds
        assert spec.sp1_holds(network, configuration) == report.sp1
        # The monitor folds each journaled corruption in incrementally.
        assert monitor.legitimate() == report.holds


def test_sp1_holds_does_not_read_the_labels(small_random, oriented_configuration):
    for node in small_random.nodes():
        oriented_configuration.replace_node(node, {VAR_NAME: node})
    # No label map anywhere: SP2 would raise on the missing variable.
    assert OrientationSpecification().sp1_holds(small_random, oriented_configuration)
