"""Command-line interface for flight-recorder logs.

::

    repro-replay show results/flightlogs/run-6f1f….flight.jsonl --start 10 --end 20
    repro-replay verify results/flightlogs/run-6f1f….flight.jsonl
    repro-replay bisect results/flightlogs/run-6f1f….flight.jsonl

``show`` pretty-prints a step range with per-node state diffs (plus the
mutations and scenario events interleaved between them).  ``verify``
re-executes the log in lockstep and exits 0 iff every step record, the final
configuration and the metrics are byte-identical to the recording.  A log
whose last line was torn by a crash verifies its valid prefix only (there is
no final entry to check) and says so.
``bisect`` localizes the *first* point of damage: it checks the recorded
per-step fingerprints for in-log corruption (an entry whose body no longer
matches its stamp), replays to the first live divergence, and reports
whichever comes first as ``file:line`` -- exit 0 when something was
localized, 1 when the log replays clean.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from repro.errors import ReproError
from repro.obs.recorder import fingerprint
from repro.replay.engine import ReplayRun
from repro.replay.log import FlightLog, decoded_step_record


def _entry_line(log: FlightLog, entry: dict[str, Any]) -> str:
    """The ``file:line`` position of ``entry`` (entries are written in seq
    order, one line each, so line = seq + 1)."""
    seq = entry.get("seq")
    return f"{log.path}:{seq + 1}" if isinstance(seq, int) else str(log.path)


# ----------------------------------------------------------------------
# show
# ----------------------------------------------------------------------
def _format_step(entry: dict[str, Any]) -> list[str]:
    record = decoded_step_record(entry)
    executed = ", ".join(f"{node}:{action}" for node, action in record.executed)
    lines = [f"step {record.step} (round {record.round})  executed [{executed}]"]
    for move in record.moves:
        if not move.changes:
            lines.append(f"    node {move.node} {move.layer}/{move.action}: no-op")
            continue
        diffs = ", ".join(
            f"{name}: {old!r} -> {new!r}"
            for name, (old, new) in sorted(move.changes.items())
        )
        lines.append(f"    node {move.node} {move.layer}/{move.action}: {diffs}")
    return lines


def _format_mutation(entry: dict[str, Any]) -> str:
    kind = entry.get("kind")
    if kind in ("freeze", "unfreeze"):
        return f"mutation {kind}: nodes {entry.get('nodes')}"
    if kind == "replace_node":
        return f"mutation replace_node: node {entry.get('node')}"
    if kind == "set_network":
        touched = sorted((entry.get("reinitialized") or {}))
        return f"mutation set_network: reinitialized nodes {touched}"
    if kind == "set_daemon":
        return f"mutation set_daemon: {entry.get('daemon')}"
    if kind == "set_configuration":
        return f"mutation set_configuration: fingerprint {entry.get('fingerprint')}"
    return f"mutation {kind}"


def _cmd_show(args: argparse.Namespace) -> int:
    log = FlightLog.load(args.log)
    print(f"{log.path}: {log.describe()}")
    print(f"initial configuration fingerprint {log.init.get('fingerprint')}")
    end = args.end if args.end is not None else float("inf")
    shown = 0
    pending: list[str] = []
    for entry in log.entries:
        kind = entry["type"]
        if kind == "mutation":
            pending.append(_format_mutation(entry))
            continue
        if kind == "event":
            pending.append(f"event {entry.get('kind')}: {entry.get('description', '')}")
            continue
        if kind != "step":
            continue
        step = entry["core"]["step"]
        if step < args.start:
            pending.clear()
            continue
        if step > end:
            break
        for line in pending:
            print(f"  -- {line}")
        pending.clear()
        for line in _format_step(entry):
            print(f"  {line}")
        shown += 1
        if args.limit is not None and shown >= args.limit:
            break
    if log.final is not None:
        print(
            f"final: steps={log.final.get('steps')} rounds={log.final.get('rounds')} "
            f"fingerprint={log.final.get('fingerprint')}"
        )
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def _cmd_verify(args: argparse.Namespace) -> int:
    log = FlightLog.load(args.log)
    if log.truncated:
        # A crashed recording never wrote its final entry, so there is no
        # final state or metrics to check.
        print(
            f"{log.path}: log truncated -- torn final line {log.torn_line} "
            f"dropped; verifying the valid prefix, final state and metrics "
            f"not checked"
        )
    report = ReplayRun(log).run()
    if report.verified:
        print(
            f"verified: {report.steps_replayed} steps and "
            f"{report.mutations_applied} mutations replayed byte-identically "
            f"({log.describe()})"
        )
        return 0
    if report.divergence is not None:
        print(report.divergence.format(), file=sys.stderr)
    if report.final_ok is False and report.final_detail:
        print(report.final_detail, file=sys.stderr)
    if report.metrics_ok is False:
        print("recorded metrics differ from the replayed run's", file=sys.stderr)
    print(
        f"verify FAILED after {report.steps_replayed} matching steps", file=sys.stderr
    )
    return 1


# ----------------------------------------------------------------------
# bisect
# ----------------------------------------------------------------------
def _first_corrupt_step(log: FlightLog) -> "dict[str, Any] | None":
    """The first step entry whose body belies its stamp.

    Each step entry carries ``fp = fingerprint(core)`` written at record
    time, so in-log damage (a flipped value, a hand-edited entry) is exactly
    a fingerprint mismatch at the damaged entry.  Damage need not be
    contiguous, so every stamp is checked (one hash per entry -- cheaper
    than a single replayed step); the earliest mismatch wins.
    """
    steps = [entry for entry in log.entries if entry["type"] == "step"]
    bad = [
        index
        for index, entry in enumerate(steps)
        if fingerprint(entry.get("core")) != entry.get("fp")
    ]
    if not bad:
        return None
    # The scan above is the ground truth (damage need not be contiguous);
    # report the earliest damaged entry.
    return steps[bad[0]]


def _cmd_bisect(args: argparse.Namespace) -> int:
    log = FlightLog.load(args.log)
    corrupt = _first_corrupt_step(log)
    report = None
    if corrupt is None or corrupt["core"].get("step", 0) > 0:
        report = ReplayRun(log).run()
    findings: list[tuple[int, str]] = []
    if corrupt is not None:
        step = corrupt["core"].get("step")
        findings.append(
            (
                step,
                f"{_entry_line(log, corrupt)}: step {step} entry is corrupt -- "
                f"its body no longer matches its recorded fingerprint "
                f"{corrupt.get('fp')}",
            )
        )
    if report is not None and report.divergence is not None:
        divergence = report.divergence
        entry = next(
            (
                e
                for e in log.entries
                if e["type"] == "step" and e.get("seq") == divergence.seq
            ),
            None,
        )
        position = _entry_line(log, entry) if entry is not None else str(log.path)
        findings.append(
            (
                divergence.step if divergence.step is not None else 0,
                f"{position}: first live divergence\n{divergence.format()}",
            )
        )
    if report is not None and report.divergence is None and report.final_ok is False:
        findings.append(
            (
                report.steps_replayed,
                f"{log.path}: every step matches but the recorded final "
                f"configuration does not ({report.final_detail})",
            )
        )
    if not findings:
        print(
            f"nothing to bisect: the log replays clean "
            f"({report.steps_replayed if report else 0} steps verified)"
        )
        return 1
    findings.sort(key=lambda item: item[0])
    step, message = findings[0]
    print(f"first divergence localized to step {step}:")
    print(message)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-replay",
        description="Inspect, verify and bisect execution flight-recorder logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="pretty-print a step range with per-node diffs")
    show.add_argument("log", metavar="LOG", help="flight log (.flight.jsonl)")
    show.add_argument("--start", type=int, default=0, metavar="STEP", help="first step")
    show.add_argument("--end", type=int, default=None, metavar="STEP", help="last step")
    show.add_argument(
        "--limit", type=int, default=None, metavar="N", help="show at most N steps"
    )

    verify = sub.add_parser(
        "verify", help="replay the log and check byte-identical step records"
    )
    verify.add_argument("log", metavar="LOG", help="flight log (.flight.jsonl)")

    bisect = sub.add_parser(
        "bisect", help="localize the first corrupt entry / live divergence"
    )
    bisect.add_argument("log", metavar="LOG", help="flight log (.flight.jsonl)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "show":
            return _cmd_show(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bisect(args)
    except (ValueError, OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
