"""ScenarioRunner recovery reports and the shipped scenario library."""

from __future__ import annotations

import pytest

from repro.analysis.recovery import (
    aggregate_event_recoveries,
    disturbed_fraction,
    disturbed_nodes,
)
from repro.core.dftno import build_dftno
from repro.core.stno import build_stno
from repro.graphs import generators
from repro.runtime.daemon import make_daemon
from repro.scenarios import (
    CorruptionBurst,
    Scenario,
    ScenarioRunner,
    TimedEvent,
    build_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenarios.library import normalize_scenario


def _network(seed: int = 11):
    return generators.random_connected(8, extra_edge_probability=0.3, seed=seed)


def test_library_ships_the_documented_scenarios():
    names = scenario_names()
    for expected in ("single_burst", "periodic_burst", "cascade", "churn"):
        assert expected in names
        scenario = build_scenario(expected)
        assert scenario.name == expected
        assert len(scenario) >= 1


def test_unknown_scenario_is_rejected_with_choices():
    with pytest.raises(ValueError, match="cascade"):
        normalize_scenario("meteor_strike")


def test_runner_reports_one_recovery_per_event():
    scenario = build_scenario("periodic_burst")
    report = ScenarioRunner(
        _network(), build_dftno(), scenario, daemon=make_daemon("central"), seed=5
    ).run()
    assert report.initial_converged
    assert len(report.events) == len(scenario)
    for event in report.events:
        assert event.applied
        assert event.recovered
        assert event.recovery_steps is not None and event.recovery_steps >= 0
        assert 0.0 <= event.disturbed_fraction <= 1.0
        assert event.closure_violations == 0
    assert report.converged


def test_runner_is_deterministic_per_seed():
    scenario = build_scenario("cascade")
    kwargs = dict(daemon=make_daemon("distributed"), seed=21)
    row_a = ScenarioRunner(_network(), build_dftno(), scenario, **kwargs).run().as_row()
    row_b = ScenarioRunner(
        _network(), build_dftno(), scenario, daemon=make_daemon("distributed"), seed=21
    ).run().as_row()
    assert row_a == row_b
    row_c = ScenarioRunner(
        _network(), build_dftno(), scenario, daemon=make_daemon("distributed"), seed=22
    ).run().as_row()
    assert row_c != row_a


def test_churn_recovers_for_both_protocol_stacks():
    scenario = build_scenario("churn")
    for protocol in (build_dftno(), build_stno(tree="bfs")):
        report = run_scenario(
            _network(), protocol, scenario, daemon=make_daemon("distributed"), seed=3
        )
        assert report.converged, f"{protocol.name} did not recover from churn"
        # Link changes may legally be skipped on degenerate topologies, but on
        # this network both link events must have fired.
        kinds = [event.kind for event in report.applied_events]
        assert kinds.count("link_change") == 2
        assert kinds.count("crash") == 2


def test_as_row_aggregates_event_metrics():
    report = run_scenario(
        _network(),
        build_dftno(),
        build_scenario("single_burst"),
        daemon=make_daemon("central"),
        seed=9,
    )
    row = report.as_row()
    assert row["scenario"] == "single_burst"
    assert row["events"] == row["events_applied"] == 1
    assert row["converged"] is True
    assert row["recovery_steps"] == row["recovery_steps_max"]
    assert row["events_deadlocked"] == 0
    assert row["parameter"] == row["n"]


def test_custom_scenario_with_zero_disturbance_recovers_instantly():
    scenario = Scenario(
        name="noop_burst",
        events=(TimedEvent(CorruptionBurst(node_fraction=0.0), delay_steps=5),),
    )
    report = run_scenario(
        _network(), build_dftno(), scenario, daemon=make_daemon("central"), seed=2
    )
    event = report.events[0]
    assert event.disturbed == 0
    assert not event.broke_legitimacy
    assert event.recovered
    assert event.recovery_steps == 0


def test_scenario_phases_end_a_closure_window_after_each_regain():
    # Unlike the harness, a scenario phase confirms for W = 3(n+m)+10 steps
    # after the step at which legitimacy was (re)gained.
    network = _network()
    window = 3 * (network.n + network.num_edges()) + 10
    delay = 5
    scenario = Scenario(
        name="one_burst",
        events=(TimedEvent(CorruptionBurst(node_fraction=0.5), delay_steps=delay),),
    )
    report = run_scenario(network, build_dftno(), scenario, daemon=make_daemon("central"), seed=2)
    event = report.events[0]
    assert report.initial_converged and event.recovered and event.broke_legitimacy
    event_step = report.initial_steps + window + delay
    assert report.total_steps == event_step + event.recovery_steps + window


def test_disturbed_nodes_watches_only_requested_variables():
    network = _network()
    protocol = build_dftno()
    before = protocol.initial_configuration(network)
    after = before.copy()
    after.set(2, "tc_lvl", 99)  # substrate variable, not an orientation one
    assert disturbed_nodes(before, after) == (2,)
    assert disturbed_nodes(before, after, variables=("no_eta", "no_pi")) == ()
    assert disturbed_fraction(before, after, network.n) == pytest.approx(1 / network.n)


def test_aggregate_event_recoveries_groups_by_kind():
    reports = [
        run_scenario(
            _network(seed),
            build_dftno(),
            build_scenario("churn"),
            daemon=make_daemon("central"),
            seed=seed,
        )
        for seed in (1, 2)
    ]
    rows = aggregate_event_recoveries(reports)
    kinds = {row["kind"] for row in rows}
    assert "crash" in kinds and "link_change" in kinds
    for row in rows:
        assert row["recovered"] <= row["events"]
