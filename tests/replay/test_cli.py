"""``repro-replay`` CLI: show / verify / bisect exit codes and output."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReplayError
from repro.replay.cli import main
from repro.replay.log import FlightLog

from tests.replay.conftest import record_run


def _tamper(path, step, mutate):
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, raw in enumerate(lines):
        entry = json.loads(raw)
        if entry.get("type") == "step" and entry["core"]["step"] == step:
            mutate(entry)
            lines[index] = json.dumps(entry, separators=(",", ":"))
            break
    else:
        raise AssertionError(f"no step {step} entry in {path}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _phantom(entry):
    entry["core"]["executed"].append([999, "Phantom"])


def test_show_prints_steps_with_per_node_diffs(recorded_log, capsys):
    path, _, _ = recorded_log
    assert main(["show", str(path), "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "protocol=dftno" in out
    assert "initial configuration fingerprint" in out
    assert "step 0 (round 0)" in out
    assert "->" in out  # at least one old -> new diff
    assert "final: steps=" in out


def test_show_honors_the_step_range(recorded_log, capsys):
    path, _, records = recorded_log
    assert len(records) > 4
    assert main(["show", str(path), "--start", "2", "--end", "3"]) == 0
    out = capsys.readouterr().out
    assert "step 2 (round" in out and "step 3 (round" in out
    assert "step 0 (round" not in out and "step 4 (round" not in out


def test_verify_exits_zero_on_a_clean_log(recorded_log, capsys):
    path, _, records = recorded_log
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"verified: {len(records)} steps" in out
    assert "byte-identically" in out


def test_verify_exits_one_on_a_tampered_log(recorded_log, capsys):
    path, _, _ = recorded_log
    _tamper(path, 3, _phantom)
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert "divergence at step 3" in err
    assert "verify FAILED after 3 matching steps" in err


def test_bisect_exits_one_when_there_is_nothing_to_bisect(recorded_log, capsys):
    path, _, records = recorded_log
    assert main(["bisect", str(path)]) == 1
    out = capsys.readouterr().out
    assert "nothing to bisect" in out
    assert f"{len(records)} steps verified" in out


def test_bisect_localizes_a_corrupt_entry_to_its_exact_step(recorded_log, capsys):
    path, _, _ = recorded_log
    _tamper(path, 7, _phantom)
    assert main(["bisect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "first divergence localized to step 7:" in out
    # In-log damage is a fingerprint mismatch at the damaged entry, named
    # by its file:line position.
    assert "is corrupt" in out
    assert f"{path}:" in out


def test_bisect_reports_the_earliest_of_multiple_damaged_entries(recorded_log, capsys):
    path, _, _ = recorded_log
    _tamper(path, 9, _phantom)
    _tamper(path, 4, _phantom)
    assert main(["bisect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "first divergence localized to step 4:" in out
    assert "step 9" not in out.split("localized")[1].splitlines()[0]


def test_bisect_localizes_a_live_divergence_with_a_matching_stamp(
    recorded_log, capsys
):
    # Re-stamp the tampered entry so the fingerprint scan passes and only
    # the live replay can catch it -- the "recorded from a buggy engine"
    # shape rather than hand-edited damage.
    from repro.obs.recorder import fingerprint

    path, _, _ = recorded_log

    def phantom_restamped(entry):
        _phantom(entry)
        entry["fp"] = fingerprint(entry["core"])

    _tamper(path, 5, phantom_restamped)
    assert main(["bisect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "first divergence localized to step 5:" in out
    assert "first live divergence" in out


def test_missing_log_is_a_usage_error(tmp_path, capsys):
    code = main(["verify", str(tmp_path / "missing.flight.jsonl")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_structurally_damaged_log_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.flight.jsonl"
    bad.write_text(
        '{"type":"header","version":1}\n{broken\n{"type":"init","config":{}}\n',
        encoding="utf-8",
    )
    for command in ("show", "verify", "bisect"):
        assert main([command, str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def _tear(path):
    """Simulate a crash mid-write: drop the final entry, cut the last step
    entry in half.  Returns the number of steps left intact."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[-1])["type"] == "final"
    lines.pop()
    assert json.loads(lines[-1])["type"] == "step"
    torn = lines.pop()
    steps = sum(1 for raw in lines if json.loads(raw)["type"] == "step")
    path.write_text("\n".join(lines) + "\n" + torn[: len(torn) // 2], encoding="utf-8")
    return steps, len(lines) + 1


def test_verify_replays_the_valid_prefix_of_a_torn_log(recorded_log, capsys):
    path, _, _ = recorded_log
    steps, torn_line = _tear(path)
    log = FlightLog.load(path)
    assert log.truncated and log.torn_line == torn_line and log.final is None
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"log truncated -- torn final line {torn_line} dropped" in out
    assert f"verified: {steps} steps" in out


def test_verify_rejects_a_corrupt_middle_line(recorded_log, capsys):
    path, _, _ = recorded_log
    lines = path.read_text(encoding="utf-8").splitlines()
    middle = len(lines) // 2
    lines[middle] = lines[middle][: len(lines[middle]) // 2]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ReplayError, match=rf"{path.name}:{middle + 1}: not valid JSON"):
        FlightLog.load(path)
    assert main(["verify", str(path)]) == 2
    assert f"{path.name}:{middle + 1}: not valid JSON" in capsys.readouterr().err


def test_console_entry_point_is_wired():
    from pathlib import Path

    text = (Path(__file__).resolve().parents[2] / "setup.py").read_text(
        encoding="utf-8"
    )
    assert "repro-replay" in text and "repro.replay.cli:main" in text


@pytest.mark.parametrize("command", ["show", "verify", "bisect"])
def test_module_invocation_smoke(command, recorded_log):
    # python -m repro.replay <cmd> is what CI drives; exercise the package
    # __main__ path in-process.
    import repro.replay.__main__ as entry

    assert entry.main is main
