"""Dynamic race sanitizer for the sharded engine (``repro-lint --race``).

The sharded engine's soundness argument is the frontier exchange: every
variable a shard's guards can read (its block plus its ghosts) is refreshed
from the coordinator's authoritative journal before the next guard
evaluation.  A gap in that exchange does not crash -- it silently diverges,
which is the worst possible failure mode for a reproduction.

:class:`ShardRaceChecker` turns such gaps into *named findings*:

* ``RC101`` -- **stale ghost**: after an exchange, a worker's mirror of a
  ghost node differs from the coordinator's configuration (a boundary
  crossing was not routed to every shard that ghosts it);
* ``RC102`` -- **stale block mirror**: a worker's mirror of one of its *own*
  nodes diverged (an apply/load was dropped or mis-ordered);
* ``RC103`` -- **conflicting write**: within one step, a shard returned
  writes for a node it does not own, or two shards returned writes for the
  same node (the coordinator would silently let one overwrite the other).

The checker hooks the coordinator (``ShardedScheduler(...,
race_checker=...)``): after every frontier exchange it pulls each worker's
mirror (the ``mirror`` worker command) and compares variable by variable;
around every execute fan-out it audits write ownership.  Zero overhead when
not attached; with ``stride > 1`` mirrors are audited every ``stride``-th
exchange.

Relation to ``REPRO_DEBUG_GUARDS`` / ``check_guard_locality``: the guard
tracker verifies *protocol* locality (a guard reads only its closed
neighborhood); the race checker verifies *engine* locality (everything a
shard reads is as fresh as the journal says).  Both must hold for sharded
runs to be bit-identical to single-process runs.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.lint.findings import Finding, severity_of


class ShardRaceChecker:
    """Variable-level cross-shard race detector (attach to a ShardedScheduler)."""

    def __init__(self, stride: int = 1, max_findings: int = 100) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1 (got {stride})")
        self.stride = stride
        self.max_findings = max_findings
        self.findings: list[Finding] = []
        self.mirror_audits = 0
        self.execution_audits = 0
        self._exchanges = 0

    # ------------------------------------------------------------------
    # Coordinator hooks
    # ------------------------------------------------------------------
    def audit_mirrors(self, coordinator) -> None:
        """Compare every worker's mirror against the authoritative journal.

        Called by the coordinator after each frontier exchange (load or
        apply).  Any divergence at that point means the *next* guard
        evaluation would read stale state -- exactly the frontier-exchange
        gap the sharded soundness argument forbids.
        """
        self._exchanges += 1
        if (self._exchanges - 1) % self.stride:
            return
        if len(self.findings) >= self.max_findings:
            return
        self.mirror_audits += 1
        partition = coordinator.partition
        answers = coordinator._command(
            {index: ("mirror",) for index in range(partition.k)}
        )
        step = coordinator.steps_executed
        for index, states in sorted(answers.items()):
            members = set(partition.blocks[index])
            for node, state in sorted(states.items()):
                truth = dict(coordinator.configuration.peek_state(node))
                if dict(state) == truth:
                    continue
                stale = sorted(
                    name
                    for name in set(state) | set(truth)
                    if state.get(name, "<missing>") != truth.get(name, "<missing>")
                )
                rule = "RC102" if node in members else "RC101"
                kind = "own node" if node in members else "ghost"
                self._record(
                    rule,
                    coordinator,
                    f"shard {index} holds a stale mirror of {kind} {node} after the "
                    f"frontier exchange before step {step}: variables {stale} diverge "
                    f"from the coordinator's journal",
                )

    def audit_execution(
        self,
        coordinator,
        by_shard: Mapping[int, Sequence[int]],
        answers: Mapping[int, Mapping[int, tuple[str, dict[str, Any]]]],
    ) -> None:
        """Audit one step's execute fan-out for ownership/double-write races."""
        self.execution_audits += 1
        if len(self.findings) >= self.max_findings:
            return
        partition = coordinator.partition
        step = coordinator.steps_executed
        writers: dict[int, int] = {}
        for index, result in sorted(answers.items()):
            members = set(partition.blocks[index])
            for node, (action_name, writes) in sorted(result.items()):
                if node not in members:
                    self._record(
                        "RC103",
                        coordinator,
                        f"shard {index} returned writes for processor {node} "
                        f"(action {action_name!r}) in step {step}, but does not own it "
                        f"(owner: shard {partition.owner_of(node)})",
                    )
                if node in writers:
                    self._record(
                        "RC103",
                        coordinator,
                        f"shards {writers[node]} and {index} both returned writes for "
                        f"processor {node} in step {step}: variables "
                        f"{sorted(writes)} would be applied twice",
                    )
                writers[node] = index

    # ------------------------------------------------------------------
    def _record(self, rule: str, coordinator, message: str) -> None:
        if len(self.findings) >= self.max_findings:
            return
        self.findings.append(
            Finding(
                rule=rule,
                path=f"{coordinator.protocol.name}@{coordinator.network.name}",
                line=0,
                message=message,
                severity=severity_of(rule),
                layer=coordinator.protocol.name,
                function=f"step{coordinator.steps_executed}",
            )
        )

    def __repr__(self) -> str:
        return (
            f"ShardRaceChecker(findings={len(self.findings)}, "
            f"mirror_audits={self.mirror_audits}, stride={self.stride})"
        )


def run_race_check(
    protocol: str = "dftno",
    family: str = "random_connected",
    size: int = 8,
    shards: int = 2,
    seed: int = 1,
    partition: str = "bfs",
    max_steps: int | None = None,
    mode: str = "inline",
    stride: int = 1,
) -> tuple[ShardRaceChecker, bool]:
    """Run one sharded execution with the race checker attached.

    Returns ``(checker, converged)``; the CLI's ``--race`` mode exits
    non-zero when the checker recorded findings (or the run failed to
    converge, which would itself indicate an engine bug on these small
    instances).
    """
    from repro.analysis.convergence import step_budget
    from repro.api.engines import build_protocol
    from repro.graphs.generators import family as build_family
    from repro.shard import ShardedScheduler

    network = build_family(family, size, seed=seed)
    checker = ShardRaceChecker(stride=stride)
    budget = max_steps if max_steps is not None else step_budget(network)
    with ShardedScheduler(
        network,
        build_protocol(protocol),
        seed=seed,
        shards=shards,
        partition=partition,
        mode=mode,
        race_checker=checker,
    ) as scheduler:
        result = scheduler.run_until_legitimate(max_steps=budget)
    return checker, result.converged


__all__ = ["ShardRaceChecker", "run_race_check"]
