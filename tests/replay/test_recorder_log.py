"""Log structure: what the recorder writes, the parser must read back.

These tests pin the on-disk contract -- entry shapes, causal sequencing,
fingerprint stamps -- independent of replay, so a log written today stays
debuggable even if the replay engine evolves.
"""

from __future__ import annotations

import json

import pytest

from repro.api import RunSpec
from repro.errors import ReplayError
from repro.obs.recorder import SCHEMA_VERSION, fingerprint
from repro.replay.log import FlightLog, decoded_step_record

from tests.replay.conftest import record_run


def _lines(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def test_log_opens_with_header_then_init_then_steps(recorded_log):
    path, scheduler, records = recorded_log
    lines = _lines(path)
    assert [entry["type"] for entry in lines[:2]] == ["header", "init"]
    assert lines[0]["version"] == SCHEMA_VERSION
    assert lines[0]["protocol"] == "dftno"
    assert lines[0]["daemon"].startswith("distributed")
    assert lines[0]["network"]["num_nodes"] == scheduler.network.n
    assert lines[-1]["type"] == "final"
    assert lines[-1]["steps"] == len(records)
    step_entries = [entry for entry in lines if entry["type"] == "step"]
    assert len(step_entries) == len(records)


def test_entries_carry_a_strictly_increasing_causal_sequence(recorded_log):
    path, _, _ = recorded_log
    lines = _lines(path)
    seqs = [entry["seq"] for entry in lines]
    assert seqs == list(range(len(lines)))
    # file:line = seq + 1 is what bisect prints; pin it.
    for lineno, entry in enumerate(lines, start=1):
        assert entry["seq"] + 1 == lineno


def test_every_step_entry_fingerprint_matches_its_body(recorded_log):
    path, _, _ = recorded_log
    steps = [entry for entry in _lines(path) if entry["type"] == "step"]
    assert steps, "run recorded no steps"
    for entry in steps:
        assert entry["fp"] == fingerprint(entry["core"])


def test_decoded_step_records_equal_the_live_stream(recorded_log):
    path, _, records = recorded_log
    log = FlightLog.load(path)
    decoded = [decoded_step_record(entry) for entry in log.steps()]
    assert decoded == records


def test_initial_states_decode_to_the_recorded_configuration(recorded_log):
    path, _, _ = recorded_log
    log = FlightLog.load(path)
    states = log.initial_states()
    assert set(states) == set(range(log.header["network"]["num_nodes"]))
    assert log.init["fingerprint"] == fingerprint(log.init["config"])
    assert log.initial_frozen() == ()


def test_header_records_the_spec_when_given_one(tmp_path):
    spec = RunSpec(protocol="dftno", seed=11, record=True)
    path = tmp_path / "spec.flight.jsonl"
    record_run(path, spec=spec, max_steps=5)
    log = FlightLog.load(path)
    assert log.spec_dict is not None
    assert log.spec_dict["protocol"] == "dftno"
    assert log.header["spec_hash"] == spec.canonical_hash
    # record= is hash-excluded: the same run without recording hashes the same.
    assert RunSpec(protocol="dftno", seed=11).canonical_hash == spec.canonical_hash


def test_raw_runs_have_no_spec_but_still_describe_themselves(recorded_log):
    path, _, _ = recorded_log
    log = FlightLog.load(path)
    assert log.spec_dict is None
    text = log.describe()
    assert "protocol=dftno" in text and "steps=" in text


def test_mutations_are_recorded_through_the_scheduler_seams(tmp_path):
    path = tmp_path / "mutated.flight.jsonl"
    from repro.core.dftno import build_dftno
    from repro.graphs import generators
    from repro.obs import FlightRecorder
    from repro.runtime.daemon import make_daemon
    from repro.runtime.scheduler import Scheduler

    recorder = FlightRecorder(path)
    scheduler = Scheduler(
        generators.random_connected(6, extra_edge_probability=0.3, seed=4),
        build_dftno(),
        daemon=make_daemon("distributed"),
        seed=4,
        observers=(recorder,),
    )
    for _ in range(3):
        scheduler.step()
    scheduler.freeze([0, 1])
    scheduler.step()
    scheduler.unfreeze([0, 1])
    for _ in range(3):
        scheduler.step()
    recorder.close()

    kinds = [
        entry.get("kind")
        for entry in _lines(path)
        if entry["type"] == "mutation"
    ]
    assert kinds == ["freeze", "unfreeze"]
    freeze = next(e for e in _lines(path) if e.get("kind") == "freeze")
    assert freeze["nodes"] == [0, 1]


def test_parser_rejects_structural_damage(tmp_path):
    with pytest.raises(ReplayError, match="does not exist"):
        FlightLog.load(tmp_path / "missing.flight.jsonl")

    empty = tmp_path / "empty.flight.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ReplayError, match="no header"):
        FlightLog.load(empty)

    garbage = tmp_path / "garbage.flight.jsonl"
    garbage.write_text(
        '{"type":"header","version":1}\n{broken\n{"type":"init","config":{}}\n',
        encoding="utf-8",
    )
    with pytest.raises(ReplayError, match=r"garbage\.flight\.jsonl:2: not valid JSON"):
        FlightLog.load(garbage)

    orphan = tmp_path / "orphan.flight.jsonl"
    orphan.write_text('{"type":"init","config":{}}\n', encoding="utf-8")
    with pytest.raises(ReplayError, match="init before header"):
        FlightLog.load(orphan)

    future = tmp_path / "future.flight.jsonl"
    future.write_text('{"type":"header","version":999}\n', encoding="utf-8")
    with pytest.raises(ReplayError, match="schema version"):
        FlightLog.load(future)


def test_parser_drops_only_a_torn_final_line(tmp_path, recorded_log):
    path, _, _ = recorded_log
    intact = FlightLog.load(path)
    assert not intact.truncated and intact.torn_line is None
    assert intact.final is not None

    # Trailing blank lines do not hide a tear: the last non-blank line counts.
    torn = tmp_path / "torn.flight.jsonl"
    torn.write_text(
        '{"type":"header","version":1}\n{"type":"init","config":{}}\n{"type":"st\n\n\n',
        encoding="utf-8",
    )
    log = FlightLog.load(torn)
    assert log.truncated and log.torn_line == 3
    assert log.entries == [] and log.final is None

    # A tear before the init entry leaves no replayable prefix.
    headless = tmp_path / "headless.flight.jsonl"
    headless.write_text('{"type":"header","version":1}\n{"type":"in', encoding="utf-8")
    with pytest.raises(ReplayError, match="no init entry"):
        FlightLog.load(headless)


def test_parser_reads_damaged_content_without_judging_it(recorded_log):
    # A *divergent* log is readable: content damage is replay's verdict.
    path, _, _ = recorded_log
    lines = path.read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[2])
    assert entry["type"] == "step"
    entry["core"]["executed"].append([999, "Phantom"])
    lines[2] = json.dumps(entry, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    log = FlightLog.load(path)  # must not raise
    assert log.step_count() > 0


def test_recorder_survives_a_second_run_start(tmp_path, recorded_log):
    from repro.obs import FlightRecorder
    from repro.core.dftno import build_dftno
    from repro.graphs import generators
    from repro.runtime.daemon import make_daemon
    from repro.runtime.scheduler import Scheduler

    path = tmp_path / "double.flight.jsonl"
    recorder = FlightRecorder(path)
    network = generators.random_connected(5, extra_edge_probability=0.3, seed=2)
    first = Scheduler(
        network, build_dftno(), daemon=make_daemon("distributed"), seed=2,
        observers=(recorder,),
    )
    first.step()
    # A second engine construction must not interleave a second header.
    Scheduler(
        network, build_dftno(), daemon=make_daemon("distributed"), seed=3,
        observers=(recorder,),
    )
    recorder.close()
    lines = _lines(path)
    assert sum(1 for e in lines if e["type"] == "header") == 1
    assert any(e["type"] == "note" for e in lines)
