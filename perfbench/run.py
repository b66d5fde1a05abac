"""End-to-end benchmark: one workload, from ``RunSpec`` to checked row.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dftno-central --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, over whole
passes of the workload's fixed input pool in the seed's order; each pass
starts with one timed set-up.  An input's time is the fastest of its repeats
(one per pass), and the timings and rates are taken over those best times:
on a shared host the same operation's wall swings by up to half within a
run, and its fastest repeat moves far less between runs.  ``--trace 1``
makes the traced pass instead: the first operations of that order run once
untraced and once with span wrappers and an ``Instrumentation`` registry, and
the per-layer metrics come from the traced runs.  Either way every row is
checked against ``reference.json``; the last line of standard output is one
JSON object, and the exit code is 1 when any operation raised, did not
converge or produced a different row.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

END_TO_END = {
    "run_wall_s_p50": "s",
    "task_wall_s_p75": "s",
    "steps_per_s": "1/s",
    "moves_per_s": "1/s",
    "rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphs.build_s": "s",
    "graphs.edges": "count",
    "runtime.build_protocol_s": "s",
    "runtime.init_config_s": "s",
    "runtime.engine_setup_s": "s",
    "runtime.step_s": "s",
    "runtime.guard_eval_s": "s",
    "runtime.guards_evaluated": "count",
    "runtime.guard_yield": "ratio",
    "runtime.frontier_mean": "nodes",
    "runtime.action_exec_s": "s",
    "runtime.commit_us_per_move": "us",
    "runtime.daemon_select_s": "s",
    "runtime.observer_dispatch_s": "s",
    "runtime.steps": "count",
    "runtime.moves": "count",
    "core.legitimacy_s": "s",
    "core.legitimacy_calls": "count",
    "substrates.legitimacy_s": "s",
    "substrates.legitimacy_calls": "count",
    "analysis.harness_self_s": "s",
    "scenarios.run_self_s": "s",
    "scenarios.mutation_s": "s",
    "scenarios.mutations": "count",
    "scenarios.recovery_steps": "count",
    "obs.flightlog_s": "s",
    "obs.flightlog_bytes": "bytes",
    "obs.flightlog_entries": "count",
    "obs.telemetry_bytes": "bytes",
    "campaign.expand_s": "s",
    "campaign.task_s": "s",
    "campaign.store_append_s": "s",
    "campaign.store_bytes": "bytes",
    "msgpass.exec_s": "s",
    "msgpass.messages": "count",
    "msgpass.rounds": "count",
    "shard.start_s": "s",
    "shard.close_s": "s",
    "shard.frontier_exchange_s": "s",
    "shard.frontier_messages": "count",
    "shard.frontier_bytes_sent": "bytes",
    "shard.frontier_bytes_received": "bytes",
    "shard.worker_guard_eval_s": "s",
    "shard.worker_action_exec_s": "s",
    "trace.attributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def _import_repro() -> bool:
    """Put the checkout's ``src`` and root on the path; ``False`` if absent."""
    for entry in (ROOT / "src", ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    try:
        import repro  # noqa: F401
    except ImportError:
        return False
    return True


def _stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for shared memory.

    Sharded runs mirror frontier deltas through shared memory, which starts
    the resource tracker; stopping it (the call waits for it to exit) leaves
    no process of the run behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_operation(workload, key, workdir: Path, perf: bool = False) -> list:
    """Execute one operation; an exception becomes one failed sample."""
    from perfbench.workloads import Sample

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return workload.execute(key, workdir, perf=perf)
    except Exception:  # the benchmark must report, not die, on a failed op
        return [Sample(str(key), 0.0, None, error=traceback.format_exc())]


def best_repeats(samples: list) -> list:
    """Each input's fastest successful repeat, in first-seen order."""
    best: dict = {}
    for sample in samples:
        if sample.error is None and (sample.key not in best or sample.wall < best[sample.key].wall):
            best[sample.key] = sample
    return list(best.values())


def end_to_end_metrics(samples: list, setups: list[float]) -> dict:
    """Timings and rates over each input's best repeat; ``setup_s`` is the median set-up."""
    from perfbench.workloads import peak_rss_mb

    best = best_repeats(samples)
    walls = [sample.wall for sample in best] or [0.0]
    busy = sum(walls) or 1.0
    return {
        "run_wall_s_p50": statistics.median(walls),
        "task_wall_s_p75": (
            statistics.quantiles(walls, n=4)[2] if len(walls) > 1 else walls[0]
        ),
        "steps_per_s": sum(sample.steps for sample in best) / busy,
        "moves_per_s": sum(sample.moves for sample in best) / busy,
        "rows_per_s": len(best) / busy,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def untraced_run(workload, seed: int, seconds: float, workdir: Path) -> tuple[list, list[float]]:
    """Whole passes over the pool while another fits in ``seconds``.

    Each pass sets the workload up once, timed, and then runs every input.
    At least one pass runs; the next starts only if it would end within
    ``seconds`` when it takes as long as the mean pass so far.  Returns every
    sample and every set-up time.
    """
    from perfbench.workloads import pass_order

    order = pass_order(workload, seed)
    samples: list = []
    setups: list[float] = []
    started = time.perf_counter()
    while not setups or (time.perf_counter() - started) * (1 + 1 / len(setups)) <= seconds:
        setup_started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - setup_started)
        for key in order:
            samples.extend(run_operation(workload, key, workdir / f"op{len(samples)}"))
    return samples, setups


def _tree_bytes(path: Path) -> tuple[int, int]:
    """Total bytes and lines of the file ``path`` or of the files under it."""
    size = lines = 0
    for item in [path] if path.is_file() else path.rglob("*"):
        if item.is_file():
            data = item.read_bytes()
            size += len(data)
            lines += data.count(b"\n")
    return size, lines


def layer_metrics(times: dict, counts: dict, rows: list, workdirs: list, overhead: float) -> dict:
    """The per-layer metrics of one traced pass."""
    from perfbench.tracing import BOUNDARY_SPANS
    from repro.obs.instrument import merge_summaries

    def self_s(name: str) -> float:
        return times.get(name, [0.0, 0.0, 0])[0]

    def calls(name: str) -> int:
        return times.get(name, [0.0, 0.0, 0])[2]

    merged = merge_summaries(*(row.get("perf") for row in rows))
    phases = {name: entry["seconds"] for name, entry in merged.get("phases", {}).items()}
    counters = dict(merged.get("counters", {}))
    shards = merged.get("shards", {})
    worker_counters = merge_summaries(*shards.values()).get("counters", {}) if shards else {}
    frontier = merge_summaries(merged, *shards.values()).get("gauges", {}).get("frontier_size")
    guards = counters.get("guards_evaluated", 0) + worker_counters.get("guards_evaluated", 0)
    moves = counters.get("moves_executed", 0)

    def worker_max(phase: str) -> float:
        return max(
            (summary.get("phases", {}).get(phase, {}).get("seconds", 0.0) for summary in shards.values()),
            default=0.0,
        )

    recovery_steps = sum(
        record.get("recovery_steps") or 0
        for row in rows
        for record in row.get("event_records") or ()
    )
    telemetry_bytes = sum(
        len(json.dumps(row["telemetry"], sort_keys=True)) for row in rows if row.get("telemetry")
    )
    flight_bytes = flight_lines = store_bytes = 0
    for workdir in workdirs:
        size, lines = _tree_bytes(workdir / "flightlogs")
        flight_bytes += size
        flight_lines += lines
        store_bytes += _tree_bytes(workdir / "rows.jsonl")[0]
    roots = times.get("bench.op", [0.0, 0.0, 0])[1] or 1.0
    unattributed = sum(self_s(name) for name in BOUNDARY_SPANS)
    return {
        "graphs.build_s": self_s("graphs.build"),
        "graphs.edges": counts.get("graphs.build", 0),
        "runtime.build_protocol_s": self_s("runtime.build_protocol"),
        "runtime.init_config_s": self_s("runtime.init_config"),
        "runtime.engine_setup_s": self_s("runtime.engine_setup"),
        "runtime.step_s": self_s("runtime.step"),
        "runtime.guard_eval_s": phases.get("guard_eval", 0.0),
        "runtime.guards_evaluated": guards,
        "runtime.guard_yield": moves / guards if guards else 0.0,
        "runtime.frontier_mean": (frontier or {}).get("mean") or 0.0,
        "runtime.action_exec_s": phases.get("action_exec", 0.0),
        "runtime.commit_us_per_move": 1e6 * phases.get("action_exec", 0.0) / moves if moves else 0.0,
        "runtime.daemon_select_s": phases.get("daemon_select", 0.0),
        "runtime.observer_dispatch_s": phases.get("observer_dispatch", 0.0),
        "runtime.steps": counters.get("steps_timed", 0),
        "runtime.moves": moves,
        "core.legitimacy_s": self_s("core.legitimacy"),
        "core.legitimacy_calls": calls("core.legitimacy"),
        "substrates.legitimacy_s": self_s("substrates.legitimacy"),
        "substrates.legitimacy_calls": calls("substrates.legitimacy"),
        "analysis.harness_self_s": self_s("analysis.measure"),
        "scenarios.run_self_s": self_s("scenarios.run"),
        "scenarios.mutation_s": self_s("scenarios.mutation"),
        "scenarios.mutations": calls("scenarios.mutation"),
        "scenarios.recovery_steps": recovery_steps,
        "obs.flightlog_s": self_s("obs.flightlog_open") + self_s("obs.flightlog_close"),
        "obs.flightlog_bytes": flight_bytes,
        "obs.flightlog_entries": flight_lines,
        "obs.telemetry_bytes": telemetry_bytes,
        "campaign.expand_s": self_s("campaign.expand"),
        "campaign.task_s": times.get("campaign.task", [0.0, 0.0, 0])[1],
        "campaign.store_append_s": self_s("campaign.store_append"),
        "campaign.store_bytes": store_bytes,
        "msgpass.exec_s": self_s("msgpass.exec"),
        "msgpass.messages": counters.get("messages_sent", 0),
        "msgpass.rounds": counters.get("rounds_completed", 0),
        "shard.start_s": self_s("shard.start"),
        "shard.close_s": self_s("shard.close"),
        "shard.frontier_exchange_s": phases.get("frontier_exchange", 0.0),
        "shard.frontier_messages": counters.get("frontier_messages", 0),
        "shard.frontier_bytes_sent": counters.get("frontier_bytes_sent", 0),
        "shard.frontier_bytes_received": counters.get("frontier_bytes_received", 0),
        "shard.worker_guard_eval_s": worker_max("guard_eval"),
        "shard.worker_action_exec_s": worker_max("action_exec"),
        "trace.attributed_frac": 1.0 - unattributed / roots,
        "trace.overhead_frac": overhead,
    }


def traced_run(workload, seed: int, seconds: float, workdir: Path, recorder) -> tuple[list, dict, dict]:
    """Passes over the first ``traced_ops`` operations, untraced then traced.

    Like :func:`untraced_run`, a further pass starts only if it would end
    within ``seconds`` when it takes as long as the mean pass so far.

    Returns every sample (untraced and traced), the per-layer metrics (the
    median over passes) and the span aggregate of the last pass.  A traced
    row that differs from its untraced twin is marked failed.
    """
    from perfbench.tracing import layer_wrappers
    from perfbench.workloads import pass_order, row_digest

    keys = pass_order(workload, seed)[: workload.traced_ops]
    samples: list = []
    passes: list[dict] = []
    times: dict = {}
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started) * (1 + 1 / len(passes)) <= seconds:
        first = len(recorder.spans)
        recorder.counts = {}
        plain_wall = traced_wall = 0.0
        traced_rows: list = []
        workdirs: list = []
        for key in keys:
            index = len(passes) * len(keys) + len(workdirs)
            plain = run_operation(workload, key, workdir / f"plain{index}")
            traced_dir = workdir / f"traced{index}"
            recorder.run += 1
            with layer_wrappers(recorder):
                op_started = time.perf_counter()
                with recorder.span("bench.op"):
                    traced = run_operation(workload, key, traced_dir, perf=True)
                traced_wall += time.perf_counter() - op_started
            plain_wall += sum(sample.wall for sample in plain)
            for twin, sample in zip(plain, traced):
                if sample.error is None and (sample.row is None) != (twin.row is None):
                    sample.error = "traced run stored a row the untraced run did not"
                elif sample.error is None and twin.row is not None:
                    if row_digest(sample.row) != row_digest(twin.row):
                        sample.error = "traced row differs from the untraced row"
            samples.extend(plain + traced)
            traced_rows.extend(sample.row for sample in traced if sample.row is not None)
            workdirs.append(traced_dir)
        times = recorder.layer_times(first)
        passes.append(
            layer_metrics(
                times,
                dict(recorder.counts),
                traced_rows,
                workdirs,
                traced_wall / plain_wall - 1.0 if plain_wall else 0.0,
            )
        )
    metrics = {name: statistics.median(p[name] for p in passes) for name in PER_LAYER}
    return samples, metrics, times


def main(argv: list[str] | None = None, reference_path: Path = REFERENCE, workloads: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_repro():
        print(f"perfbench: cannot import repro from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.tracing import BOUNDARY_SPANS, SpanRecorder, write_spans
    from perfbench.workloads import WORKLOADS, check_samples, environment, load_reference

    workloads = WORKLOADS if workloads is None else workloads
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    try:
        reference = load_reference(reference_path)[workload.name]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: no reference digests for {args.workload}: {exc}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    print(f"# workload {json.dumps(workload.record())}")
    print(f"# environment {json.dumps(environment())}")
    try:
        if args.trace:
            recorder = SpanRecorder()
            samples, metrics, times = traced_run(workload, args.seed, args.seconds, workdir, recorder)
            units = PER_LAYER
            print("# layer self time of the last traced pass (self s, total s, calls)")
            for name, (own, total, count) in sorted(times.items(), key=lambda item: -item[1][0]):
                print(f"#   {name:28s} {own:10.4f} {total:10.4f} {count:8d}")
            if metrics["trace.attributed_frac"] < 0.95:
                worst = max(BOUNDARY_SPANS, key=lambda name: times.get(name, [0.0])[0])
                print(f"# unattributed boundary: self time of {worst}")
            for path in write_spans(recorder, OUT / f"trace-{args.workload}-seed{args.seed}"):
                print(f"# wrote {path}")
        else:
            samples, setups = untraced_run(workload, args.seed, args.seconds, workdir)
            metrics = end_to_end_metrics(samples, setups)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()

    failed = check_samples(samples, reference)
    for sample in samples:
        if sample.error is not None:
            print(f"# FAILED {args.workload} {sample.key}: {sample.error.strip()}", file=sys.stderr)
    error_rate = failed / len(samples)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {error_rate:.6g} fraction ({failed} of {len(samples)})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(samples),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
