"""The benchmark's own tests, on shrunken copies of its workloads."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import run as bench  # noqa: E402

assert bench._import_repro()
from perfbench.tracing import SpanRecorder, layer_wrappers  # noqa: E402
from perfbench.workloads import WORKLOADS, row_digest  # noqa: E402

TINY = {
    "dftno-central": dataclasses.replace(WORKLOADS["dftno-central"], size=16, pool=(0, 1)),
    "sharded-sync": dataclasses.replace(WORKLOADS["sharded-sync"], size=36, pool=(0, 1)),
    "campaign-mix": dataclasses.replace(
        WORKLOADS["campaign-mix"],
        pool=(0,),
        scenario_grid={
            "scenarios": ("cascade",),
            "protocols": ("dftno", "stno-bfs"),
            "families": ("grid",),
            "sizes": (9,),
        },
        msgpass_grid={"workloads": ("broadcast",), "families": ("grid",), "sizes": (9,)},
    ),
}


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> dict:
    workdir = tmp_path_factory.mktemp("reference")
    digests: dict[str, dict[str, str]] = {}
    for workload in TINY.values():
        group = digests.setdefault(workload.name, {})
        for key in workload.pool:
            for sample in workload.execute(key, workdir / f"{workload.name}{key}"):
                group[sample.key] = row_digest(sample.row)
    return digests


def _main(tmp_path, monkeypatch, capsys, reference, workload, trace):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(bench, "OUT", tmp_path / "out")
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    code = bench.main(argv, reference_path=path, workloads=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_metric_names_and_units_are_printed(tmp_path, monkeypatch, capsys, reference, workload, trace):
    code, lines, result = _main(tmp_path, monkeypatch, capsys, reference, workload, trace)
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines if not line.startswith(("#", "{"))}
    assert all(printed[name] == unit for name, unit in expected.items())


def test_declared_metrics_match_the_printed_ones():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_tampered_reference_fails_every_row(tmp_path, monkeypatch, capsys, reference, trace):
    tampered = {
        group: {key: "0" * 16 for key in digests} for group, digests in reference.items()
    }
    code, lines, result = _main(tmp_path, monkeypatch, capsys, tampered, "dftno-central", trace)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("error_rate 1 ") for line in lines)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_rows_equal_untraced_rows(tmp_path, workload):
    tiny = TINY[workload]
    key = tiny.pool[0]
    plain = tiny.execute(key, tmp_path / "plain")
    recorder = SpanRecorder()
    with layer_wrappers(recorder), recorder.span("bench.op"):
        traced = tiny.execute(key, tmp_path / "traced", perf=True)
    assert [row_digest(s.row) for s in plain] == [row_digest(s.row) for s in traced]
    assert all("perf" in sample.row for sample in traced)
    names = {span[0] for span in recorder.spans}
    assert {"graphs.build", "runtime.step", "substrates.legitimacy", "core.legitimacy"} <= names


def test_wrappers_are_removed_after_the_traced_pass():
    from repro.api.spec import NetworkSpec
    from repro.runtime.scheduler import Scheduler

    before = (NetworkSpec.build, Scheduler.step, Scheduler.__init__)
    with layer_wrappers(SpanRecorder()):
        assert Scheduler.step is not before[1]
    assert (NetworkSpec.build, Scheduler.step, Scheduler.__init__) == before


def test_each_input_is_timed_by_its_fastest_successful_repeat():
    from perfbench.workloads import Sample

    samples = [
        Sample("a", 3.0, None),
        Sample("b", 2.0, None),
        Sample("a", 1.0, None, error="boom"),
        Sample("a", 2.5, None),
        Sample("b", 4.0, None),
    ]
    assert [(s.key, s.wall) for s in bench.best_repeats(samples)] == [("a", 2.5), ("b", 2.0)]
    metrics = bench.end_to_end_metrics(samples, [0.3, 0.1, 0.2])
    assert metrics["rows_per_s"] == 2 / 4.5
    assert metrics["setup_s"] == 0.2


def test_self_time_subtracts_children():
    recorder = SpanRecorder()
    recorder.spans = [["a", 0.0, 10.0, None, 1], ["b", 1.0, 4.0, 0, 1], ["c", 5.0, 6.0, 0, 1]]
    times = recorder.layer_times()
    assert times["a"] == [6.0, 10.0, 1]
    assert times["b"] == [3.0, 3.0, 1]


def test_manifest_records_every_workload():
    manifest = json.loads((Path(__file__).resolve().parent / "manifest.json").read_text())
    assert manifest["claim"] is None
    assert manifest["workloads"] == [workload.record() for workload in WORKLOADS.values()]
