"""Stall / divergence watchdog: structured anomaly events for unhealthy runs.

A self-stabilizing run is supposed to *drain*: the enabled set shrinks, the
configuration stops cycling, legitimacy arrives within the theorems' round
bounds.  :class:`HealthMonitor` rides the observer stream and raises a
structured **anomaly** when a run stops looking like that:

* ``stall`` -- the enabled set is nonempty but the configuration keeps
  revisiting the same global states (a livelock / limit cycle).  Detected by
  fingerprinting the configuration every ``check_every`` steps and counting
  repeats inside a sliding window; before emitting, the monitor *lazily*
  re-checks the protocol's legitimacy predicate, because several of the
  paper's protocols (token circulation, Dijkstra's ring, PIF waves) cycle
  through configurations forever *by design* once legitimate -- only an
  **illegitimate** cycle is an anomaly.
* ``round_budget`` -- the completed-round count exceeded ``round_budget``.
  The budget defaults to a generous multiple of ``n + m`` (the protocols'
  bounds are O(n) / O(h) rounds, so a healthy run never gets near it); it is
  the "this should have converged by now" alarm.

Anomalies are emitted three ways at once, so every consumer sees them:

* appended to :attr:`HealthMonitor.anomalies` (and the :meth:`snapshot`
  blob that lands in ``RunResult.health`` / campaign rows under ``health``);
* counted on the run's instrumentation registry (``anomalies`` counter)
  when one is attached;
* emitted as a zero-duration ``anomaly`` span through the span/trace layer
  when a tracer rides the instrumentation (``REPRO_TRACE``), parented on the
  current run span -- so a trace file carries its anomalies inline.

False positives are a contract, not a hope: the watchdog suite runs every
substrate x daemon in the equivalence matrix -- converged runs, frozen-node
scenarios, legitimately slow adversarial-daemon runs -- and asserts zero
anomalies with the defaults below.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.observers import Observer

#: The health blob schema version.
HEALTH_SCHEMA = 1

#: Fingerprint the configuration every this many steps by default.
DEFAULT_CHECK_EVERY = 16

#: Sliding window length, in *checks*, over which repeats are counted.
DEFAULT_CYCLE_WINDOW = 64

#: A fingerprint must repeat this many times inside the window to count as a
#: cycle (the first sighting is not a repeat).
DEFAULT_CYCLE_REPEATS = 3

#: Default round budget: ``factor * (n + m) + base`` completed rounds.  The
#: protocols' bounds are O(n)/O(h) *rounds*, so this is an order of magnitude
#: of slack -- a run that exceeds it is not "slow", it is not converging.
DEFAULT_BUDGET_FACTOR = 32
DEFAULT_BUDGET_BASE = 256

#: Stop recording after this many anomalies (the run is already condemned).
DEFAULT_MAX_ANOMALIES = 64


def configuration_fingerprint(configuration: Any) -> int:
    """A within-run fingerprint of a configuration's full global state.

    Values are hashed when hashable and ``repr``-ed otherwise; the
    fingerprint is only ever compared against fingerprints from the same
    process, so Python's per-process hash randomization is harmless.
    """
    items: list[tuple[int, tuple[tuple[str, Any], ...]]] = []
    for node in configuration.nodes():
        state = configuration.peek_state(node)
        items.append((node, tuple(sorted(state.items()))))
    try:
        return hash(tuple(items))
    except TypeError:  # an unhashable variable value somewhere in the state
        return hash(repr(items))


class HealthMonitor(Observer):
    """Watchdog observer detecting stalls and blown round budgets.

    Parameters
    ----------
    round_budget:
        Completed-round budget; ``None`` (default) derives
        ``DEFAULT_BUDGET_FACTOR * (n + m) + DEFAULT_BUDGET_BASE`` from the
        source's network on the first step.  The budget anomaly fires when
        ``rounds > round_budget``.
    check_every:
        Fingerprint the configuration every this many steps.
    cycle_window / cycle_repeats:
        A ``stall`` anomaly needs ``cycle_repeats`` repeats of one
        fingerprint within the last ``cycle_window`` checks (plus a nonempty
        enabled set and a failing legitimacy predicate at emission time).
    max_anomalies:
        Hard cap on recorded anomalies per run.
    """

    def __init__(
        self,
        round_budget: int | None = None,
        check_every: int = DEFAULT_CHECK_EVERY,
        cycle_window: int = DEFAULT_CYCLE_WINDOW,
        cycle_repeats: int = DEFAULT_CYCLE_REPEATS,
        max_anomalies: int = DEFAULT_MAX_ANOMALIES,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if cycle_window < 2:
            raise ValueError("cycle_window must be >= 2")
        if cycle_repeats < 1:
            raise ValueError("cycle_repeats must be >= 1")
        self.round_budget = round_budget
        self.check_every = check_every
        self.cycle_window = cycle_window
        self.cycle_repeats = cycle_repeats
        self.max_anomalies = max_anomalies
        #: Structured anomaly records, oldest first.
        self.anomalies: list[dict[str, Any]] = []
        self.steps = 0
        self.rounds = 0
        self.checks = 0
        self._window: list[int] = []  # fingerprints, oldest first
        self._counts: dict[int, int] = {}  # fingerprint -> count in window
        self._budget_fired = False
        self._derived_budget: int | None = round_budget

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def on_step(self, source: Any, record: Any) -> None:
        self.steps = record.step + 1
        if self._derived_budget is None:
            network = getattr(source, "network", None)
            if network is not None:
                self._derived_budget = (
                    DEFAULT_BUDGET_FACTOR * (network.n + network.num_edges())
                    + DEFAULT_BUDGET_BASE
                )
        self._check_budget(source)
        if record.step % self.check_every == 0:
            self._check_cycle(source)

    def on_round(self, source: Any, round_index: int) -> None:
        self.rounds = round_index

    def on_event(self, source: Any, event: Any) -> None:
        # A scenario event just mutated the configuration (faults, crashes,
        # topology changes): earlier fingerprints no longer describe the same
        # system, so the cycle window restarts.
        self._reset_window()

    def on_converged(self, source: Any, result: Any) -> None:
        # Convergence ends the hunt; whatever the window holds is history.
        self._reset_window()

    # ------------------------------------------------------------------
    # Detectors
    # ------------------------------------------------------------------
    def _check_budget(self, source: Any) -> None:
        if self._budget_fired or self._derived_budget is None:
            return
        if self.rounds > self._derived_budget:
            self._budget_fired = True
            self._emit(
                source,
                kind="round_budget",
                detail=f"completed {self.rounds} rounds, budget {self._derived_budget}",
            )

    def _check_cycle(self, source: Any) -> None:
        configuration = getattr(source, "configuration", None)
        if configuration is None:
            return
        enabled_nodes = getattr(source, "enabled_nodes", None)
        if callable(enabled_nodes) and not enabled_nodes():
            # A terminated (silent) run is not stalling, whatever it looks
            # like; drop the window so stale fingerprints cannot fire later.
            self._reset_window()
            return
        self.checks += 1
        fingerprint = configuration_fingerprint(configuration)
        count = self._counts.get(fingerprint, 0) + 1
        self._counts[fingerprint] = count
        self._window.append(fingerprint)
        if len(self._window) > self.cycle_window:
            oldest = self._window.pop(0)
            remaining = self._counts.get(oldest, 0) - 1
            if remaining <= 0:
                self._counts.pop(oldest, None)
            else:
                self._counts[oldest] = remaining
        if count + 1 <= self.cycle_repeats:  # count includes this sighting
            return
        # The configuration keeps coming back.  Cycling is legal *after*
        # legitimacy (token rings circulate forever), so only an illegitimate
        # cycle is an anomaly -- checked lazily, exactly once per suspicion.
        if self._legitimate(source) is not False:
            self._reset_window()
            return
        self._emit(
            source,
            kind="stall",
            detail=(
                f"configuration revisited {count} times within the last "
                f"{len(self._window)} checks with a nonempty enabled set"
            ),
        )
        self._reset_window()

    @staticmethod
    def _legitimate(source: Any) -> bool | None:
        monitor = getattr(source, "legitimacy", None)
        if monitor is None:
            return None
        try:
            return monitor.legitimate()
        except Exception:
            return None

    def _reset_window(self) -> None:
        self._window.clear()
        self._counts.clear()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(self, source: Any, kind: str, detail: str) -> None:
        if len(self.anomalies) >= self.max_anomalies:
            return
        record = {
            "kind": kind,
            "step": self.steps,
            "round": self.rounds,
            "detail": detail,
        }
        self.anomalies.append(record)
        instr = getattr(source, "instrumentation", None)
        if instr is not None and getattr(instr, "enabled", False):
            instr.count("anomalies")
            instr.count(f"anomaly_{kind}")
            tracer = instr.tracer
            if tracer is not None:
                span = tracer.span(
                    "anomaly",
                    kind="anomaly",
                    parent=tracer.current_run,
                    anomaly=kind,
                    step=self.steps,
                    round=self.rounds,
                    detail=detail,
                )
                span.close()

    # ------------------------------------------------------------------
    # The persisted blob
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable health record persisted with the run."""
        return {
            "schema": HEALTH_SCHEMA,
            "anomalies": [dict(anomaly) for anomaly in self.anomalies],
            "checks": self.checks,
            "round_budget": self._derived_budget,
            "steps": self.steps,
            "rounds": self.rounds,
        }

    @property
    def healthy(self) -> bool:
        """Whether the run has produced no anomalies so far."""
        return not self.anomalies


def health_summary(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate stored ``health`` blobs across campaign rows.

    Returns the total/monitored/anomalous row counts, per-kind anomaly
    totals, and the anomalous rows' identities -- the ``report --health``
    view, reusable programmatically.
    """
    monitored = 0
    anomaly_kinds: dict[str, int] = {}
    flagged: list[dict[str, Any]] = []
    for row in rows:
        health = row.get("health")
        if not isinstance(health, dict):
            continue
        monitored += 1
        anomalies = health.get("anomalies") or []
        if not anomalies:
            continue
        kinds = sorted({str(anomaly.get("kind")) for anomaly in anomalies})
        for anomaly in anomalies:
            kind = str(anomaly.get("kind"))
            anomaly_kinds[kind] = anomaly_kinds.get(kind, 0) + 1
        entry = {
            "task_index": row.get("task_index"),
            "config_hash": row.get("config_hash"),
            "task_type": row.get("task_type", "stabilize"),
            "anomalies": len(anomalies),
            "kinds": ",".join(kinds),
            "first_step": anomalies[0].get("step"),
        }
        # Recorded runs point their anomalies at the replayable flight log.
        log = health.get("flight_log") or row.get("flight_log")
        if log:
            entry["flight_log"] = log
        flagged.append(entry)
    if any("flight_log" in entry for entry in flagged):
        # Uniform keys so table renderers keyed on the first row keep the
        # column even when only some flagged rows were recorded.
        for entry in flagged:
            entry.setdefault("flight_log", "-")
    return {
        "rows": len(rows),
        "monitored": monitored,
        "anomalous": len(flagged),
        "by_kind": anomaly_kinds,
        "flagged": flagged,
    }


__all__ = [
    "DEFAULT_BUDGET_BASE",
    "DEFAULT_BUDGET_FACTOR",
    "DEFAULT_CHECK_EVERY",
    "DEFAULT_CYCLE_REPEATS",
    "DEFAULT_CYCLE_WINDOW",
    "DEFAULT_MAX_ANOMALIES",
    "HEALTH_SCHEMA",
    "HealthMonitor",
    "configuration_fingerprint",
    "health_summary",
]
