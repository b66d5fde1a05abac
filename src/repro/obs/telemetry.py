"""Protocol-health telemetry: compact convergence time-series per run.

The instrumentation layer (:mod:`repro.obs.instrument`) answers *where the
wall clock goes*; this module answers *what the protocol is doing* while it
stabilizes.  A :class:`ConvergenceTelemetryObserver` rides any engine's
observer stream and samples, at a configurable step stride,

* the **enabled-set size** -- the paper's progress measure: a stabilizing run
  drains it, a diverging run does not;
* the **changed-node count** of each sampled step -- the per-step dirty
  frontier that feeds the incremental scheduler;
* the **selected-set size** -- how much parallelism the daemon granted;
* the **legitimacy bit** -- whether the protocol's legitimacy predicate held
  at the sample (evaluated only at the stride, never per step), plus an
  optional *convergence distance* for substrates that expose one (a
  ``convergence_distance(network, configuration)`` method returning a
  number; none of the built-ins do yet -- it is the forward hook the
  autotuning/hunt roadmap items want).

Alongside the series it accumulates whole-run aggregates that need no
sampling at all because they come straight from the step records:

* the **guard heat map** -- per-action fire counts keyed ``layer:action``,
  the quickest way to see which rule a protocol is burning its moves on;
* **writes per node** -- how many variable writes each processor performed,
  exposing hot spots (e.g. a root that keeps correcting its children);
* **per-shard move counts** when the run executes on the sharded engine
  (derived coordinator-side from the partition's owner map -- the same
  piggyback economy as the per-shard perf summaries: no extra round-trips).

The resulting :meth:`snapshot` is a plain JSON-serializable dictionary -- it
lands in ``RunResult.telemetry`` and, for campaigns run with
``--telemetry``, under the row's ``telemetry`` key, round-tripping
byte-stable through both store backends.  Like ``perf``, telemetry never
influences the measured execution or the row's config hash; a run without
the observer pays nothing (it is simply not registered).

The series is bounded: when it reaches ``max_samples`` it is decimated
(every other sample dropped, stride doubled), so arbitrarily long runs keep
a fixed-size, evenly-spaced trajectory instead of an unbounded log.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.runtime.observers import Observer

#: The telemetry blob schema version, bumped if the shape ever changes.
TELEMETRY_SCHEMA = 1

#: Default sampling stride (steps between series samples).
DEFAULT_STRIDE = 32

#: Default series bound; reaching it halves the resolution (doubles stride).
DEFAULT_MAX_SAMPLES = 512

#: Column names of each ``samples`` entry, in order.
SAMPLE_COLUMNS = (
    "step",
    "round",
    "enabled",
    "changed",
    "selected",
    "legitimate",
    "distance",
)


class ConvergenceTelemetryObserver(Observer):
    """Samples convergence time-series and guard/write heat maps from a run.

    Parameters
    ----------
    stride:
        Sample the series every this many steps (step 0 is always sampled).
        Doubles automatically whenever the series hits ``max_samples``.
    max_samples:
        Bound on the retained series length; reaching it decimates the series
        (every other sample dropped) instead of growing without bound.
    """

    def __init__(
        self,
        stride: int = DEFAULT_STRIDE,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.stride = stride
        self.max_samples = max_samples
        #: Retained series rows, each ordered like :data:`SAMPLE_COLUMNS`.
        self.samples: list[list[Any]] = []
        self.guard_heat: dict[str, int] = {}
        self.writes_per_node: dict[int, int] = {}
        self.shard_moves: dict[int, int] = {}
        self.events: list[list[Any]] = []
        self.steps = 0
        self.rounds = 0
        self.converged_step: int | None = None

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def on_step(self, source: Any, record: Any) -> None:
        self.steps = record.step + 1
        # Whole-run aggregates come straight off the record (cheap: they
        # iterate only the *selected* processors, not the network).
        partition = getattr(source, "partition", None)
        for move in getattr(record, "moves", ()):
            key = f"{move.layer}:{move.action}"
            self.guard_heat[key] = self.guard_heat.get(key, 0) + 1
            if move.changes:
                self.writes_per_node[move.node] = self.writes_per_node.get(
                    move.node, 0
                ) + len(move.changes)
            if partition is not None:
                shard = partition.owner_of(move.node)
                self.shard_moves[shard] = self.shard_moves.get(shard, 0) + 1
        if record.step % self.stride == 0:
            self._sample(source, record)

    def on_round(self, source: Any, round_index: int) -> None:
        self.rounds = round_index

    def on_event(self, source: Any, event: Any) -> None:
        kind = getattr(event, "kind", type(event).__name__)
        self.events.append([self.steps, str(kind)])

    def on_converged(self, source: Any, result: Any) -> None:
        if self.converged_step is None:
            self.converged_step = self.steps

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _sample(self, source: Any, record: Any) -> None:
        enabled: int | None = None
        enabled_nodes = getattr(source, "enabled_nodes", None)
        if callable(enabled_nodes):
            enabled = len(enabled_nodes())
        self.samples.append(
            [
                record.step,
                record.round,
                enabled,
                len(getattr(record, "changed_nodes", ())),
                len(getattr(record, "executed", ())),
                self._legitimacy(source),
                self._distance(source),
            ]
        )
        if len(self.samples) >= self.max_samples:
            # Decimate: keep every other sample, double the stride.  The
            # retained rows stay evenly spaced and the blob stays bounded.
            self.samples = self.samples[::2]
            self.stride *= 2

    @staticmethod
    def _legitimacy(source: Any) -> int | None:
        """0/1 legitimacy of the source's current configuration (or ``None``).

        Read from the source's legitimacy monitor (``scheduler.legitimacy``);
        sources without one, such as the message-passing simulator, give
        ``None``.  Substrates may additionally expose
        ``convergence_distance(network, configuration)``; :meth:`_distance`
        reads it when present.
        """
        monitor = getattr(source, "legitimacy", None)
        if monitor is None:
            return None
        try:
            return int(monitor.legitimate())
        except Exception:  # a partial stack mid-scenario must not kill the run
            return None

    @staticmethod
    def _distance(source: Any) -> float | None:
        protocol = getattr(source, "protocol", None)
        distance = getattr(protocol, "convergence_distance", None)
        if not callable(distance):
            return None
        try:
            value = distance(source.network, source.configuration)
        except Exception:
            return None
        return float(value) if value is not None else None

    # ------------------------------------------------------------------
    # The persisted blob
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The JSON-serializable telemetry blob persisted with the run.

        All keys are strings and all values are ints / ``None`` / strings,
        so the blob round-trips byte-stable through JSONL and SQLite stores.
        """
        out: dict[str, Any] = {
            "schema": TELEMETRY_SCHEMA,
            "stride": self.stride,
            "columns": list(SAMPLE_COLUMNS),
            "samples": [list(sample) for sample in self.samples],
            "guard_heat": {
                name: count for name, count in sorted(self.guard_heat.items())
            },
            "writes_per_node": {
                str(node): count for node, count in sorted(self.writes_per_node.items())
            },
            "steps": self.steps,
            "rounds": self.rounds,
            "converged_step": self.converged_step,
        }
        if self.events:
            out["events"] = [list(event) for event in self.events]
        if self.shard_moves:
            out["shard_moves"] = {
                str(shard): count for shard, count in sorted(self.shard_moves.items())
            }
        return out


def guard_heat_table(snapshot: Mapping[str, Any], limit: int | None = None) -> list[dict[str, Any]]:
    """Render a telemetry blob's guard heat map as table rows (hottest first).

    Each row carries the ``layer:action`` key split apart, the fire count,
    and the share of all fires -- the "reading a guard heat map" view the
    README documents.
    """
    heat = snapshot.get("guard_heat", {})
    total = sum(heat.values()) or 1
    rows = [
        {
            "layer": key.split(":", 1)[0],
            "action": key.split(":", 1)[1] if ":" in key else key,
            "fires": count,
            "share": f"{100.0 * count / total:.1f}%",
        }
        for key, count in sorted(heat.items(), key=lambda item: item[1], reverse=True)
    ]
    return rows[:limit] if limit is not None else rows


def enabled_trajectory(snapshot: Mapping[str, Any]) -> list[tuple[int, int]]:
    """The (step, enabled-set size) series out of a telemetry blob.

    Skips samples where the engine did not expose an enabled set (e.g. the
    message-passing simulator).  This is the drain curve the paper's
    convergence claims are about.
    """
    columns = snapshot.get("columns", list(SAMPLE_COLUMNS))
    try:
        step_index = columns.index("step")
        enabled_index = columns.index("enabled")
    except ValueError:
        return []
    return [
        (sample[step_index], sample[enabled_index])
        for sample in snapshot.get("samples", [])
        if sample[enabled_index] is not None
    ]


__all__ = [
    "ConvergenceTelemetryObserver",
    "DEFAULT_MAX_SAMPLES",
    "DEFAULT_STRIDE",
    "SAMPLE_COLUMNS",
    "TELEMETRY_SCHEMA",
    "enabled_trajectory",
    "guard_heat_table",
]
