"""The traced pass: in-memory spans around the calls into each layer.

Spans are recorded from this file only.  For the duration of a traced
operation, :func:`layer_wrappers` replaces the public functions and methods
each layer exposes with thin wrappers that open a span, call the original and
close the span; leaving the context restores the originals, so the untraced
operations run untouched code.  Every span keeps its name, start, end, parent
and run id in memory, and :func:`write_spans` writes them out (JSONL plus a
Chrome trace through ``repro.obs.spans.to_chrome_trace``) when the benchmark
ends.

The step loop's inner phases (guard evaluation, daemon selection, action
commit, observer dispatch, frontier exchange) are not spans: they come from
the existing ``repro.obs.Instrumentation`` registry attached to each traced
run, whose summary lands in ``row["perf"]``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Callable, Iterator

#: Spans whose self time is *not* attributed to a layer: the benchmark's own
#: operation and the dispatch boundaries between layers.
BOUNDARY_SPANS = ("bench.op", "api.run", "campaign.run", "campaign.task")


class SpanRecorder:
    """Spans as ``[name, start, end, parent index, run id]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.run = 0
        self._stack: list[int] = []
        self._epoch = time.perf_counter()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, function: Callable, count: Callable | None = None) -> Callable:
        """``function`` inside a span; ``count(result)`` adds to ``counts[name]``."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(result)
            return result

        return traced

    def layer_times(self, first: int = 0) -> dict[str, list[float]]:
        """``name -> [self seconds, total seconds, calls]`` for spans ``first..``.

        A span's self time is its duration minus the time its direct
        children cover; children never overlap, as every span nests.
        """
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None and parent >= first:
                covered[parent - first] += end - start
        out: dict[str, list[float]] = {}
        for index, (name, start, end, _, _) in enumerate(spans):
            entry = out.setdefault(name, [0.0, 0.0, 0])
            entry[0] += (end - start) - covered[index]
            entry[1] += end - start
            entry[2] += 1
        return out


def _targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped layer entry point."""
    import repro.analysis.convergence as convergence
    import repro.api.engines as engines
    import repro.campaign.runner as campaign_runner
    import repro.campaign.tasks as campaign_tasks
    from perfbench import workloads
    from repro.api.spec import NetworkSpec
    from repro.campaign.grid import Grid
    from repro.campaign.store import JsonlResultStore
    from repro.core.dftno import DFTNO
    from repro.core.stno import STNO
    from repro.obs.health import HealthMonitor
    from repro.obs.recorder import FlightRecorder
    from repro.obs.telemetry import ConvergenceTelemetryObserver
    from repro.runtime.protocol import Protocol
    from repro.runtime.scheduler import Scheduler
    from repro.scenarios import events
    from repro.scenarios.runner import ScenarioRunner
    from repro.shard import ShardedScheduler
    from repro.substrates.dijkstra_ring import DijkstraTokenRing
    from repro.substrates.pif import PIFWave
    from repro.substrates.spanning_tree import BFSSpanningTree, DFSSpanningTree
    from repro.substrates.token_circulation import DepthFirstTokenCirculation

    targets = [
        (NetworkSpec, "build", "graphs.build"),
        (engines, "build_protocol", "runtime.build_protocol"),
        (convergence, "build_dftno", "runtime.build_protocol"),
        (convergence, "build_stno", "runtime.build_protocol"),
        (Protocol, "random_configuration", "runtime.init_config"),
        (Scheduler, "__init__", "runtime.engine_setup"),
        (Scheduler, "step", "runtime.step"),
        (ShardedScheduler, "__init__", "shard.start"),
        (ShardedScheduler, "close", "shard.close"),
        (convergence, "measure_layered_stabilization", "analysis.measure"),
        (DFTNO, "legitimate", "core.legitimacy"),
        (STNO, "legitimate", "core.legitimacy"),
        (ScenarioRunner, "run", "scenarios.run"),
        (engines.MsgpassEngine, "execute", "msgpass.exec"),
        (workloads, "run", "api.run"),
        (campaign_runner.CampaignRunner, "run", "campaign.run"),
        (Grid, "expand", "campaign.expand"),
        (campaign_runner, "run_task", "campaign.task"),
        (campaign_tasks, "run", "api.run"),
        (JsonlResultStore, "append", "campaign.store_append"),
        (FlightRecorder, "__init__", "obs.flightlog_open"),
        (FlightRecorder, "close", "obs.flightlog_close"),
        (ConvergenceTelemetryObserver, "snapshot", "obs.snapshot"),
        (HealthMonitor, "snapshot", "obs.snapshot"),
    ]
    for substrate in (
        DepthFirstTokenCirculation,
        BFSSpanningTree,
        DFSSpanningTree,
        DijkstraTokenRing,
        PIFWave,
    ):
        targets.append((substrate, "legitimate", "substrates.legitimacy"))
    for event in vars(events).values():
        if (
            isinstance(event, type)
            and issubclass(event, events.ScenarioEvent)
            and event is not events.ScenarioEvent
            and "apply" in vars(event)
        ):
            targets.append((event, "apply", "scenarios.mutation"))
    return targets


def _edges(network) -> int:
    return network.num_edges()


@contextlib.contextmanager
def layer_wrappers(recorder: SpanRecorder) -> Iterator[None]:
    """Install the span wrappers for the duration of the ``with`` block."""
    saved = []
    try:
        for owner, attribute, name in _targets():
            original = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            count = _edges if name == "graphs.build" else None
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original, count))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def write_spans(recorder: SpanRecorder, stem: Path) -> tuple[Path, Path]:
    """Write ``<stem>.spans.jsonl`` and ``<stem>.chrome.json``; return both paths."""
    from repro.obs.spans import to_chrome_trace

    stem.parent.mkdir(parents=True, exist_ok=True)
    jsonl = stem.with_name(stem.name + ".spans.jsonl")
    records = []
    with open(jsonl, "w", encoding="utf-8") as stream:
        for index, (name, start, end, parent, run) in enumerate(recorder.spans):
            stream.write(
                json.dumps(
                    {
                        "span": index,
                        "name": name,
                        "start": start - recorder._epoch,
                        "end": end - recorder._epoch,
                        "parent": parent,
                        "run": run,
                    }
                )
                + "\n"
            )
            records.append(
                {
                    "span": index + 1,
                    "parent": parent + 1 if parent is not None else None,
                    "name": name,
                    "kind": "run" if parent is None else name.split(".", 1)[0],
                    "t_offset": start - recorder._epoch,
                    "seconds": end - start,
                    "run": run,
                }
            )
    chrome = stem.with_name(stem.name + ".chrome.json")
    with open(chrome, "w", encoding="utf-8") as stream:
        json.dump(to_chrome_trace(records), stream)
    return jsonl, chrome
