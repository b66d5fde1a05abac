"""Propagation of Information with Feedback (PIF) on a rooted tree.

The related-work chapter lists PIF waves among the classic building blocks
that have been self-stabilized.  We include a compact implementation for two
reasons: it exercises the runtime with a protocol whose rounds-based analysis
is textbook material (a full wave takes Theta(h) rounds, the same quantity
STNO's bound is stated in), and it doubles as the broadcast-with-acknowledgement
baseline in the sense-of-direction message-complexity discussion.

The protocol runs on a *tree* network (or on the tree edges selected by a
spanning-tree substrate, supplied as an explicit parent map).  States:

* ``C`` (clean)     -- idle;
* ``B`` (broadcast) -- the wave is travelling down;
* ``F`` (feedback)  -- the subtree below has acknowledged.

Error states (a child in ``B`` whose parent is ``C``, etc.) collapse back to
``C`` by local checking, so the wave sequence is self-stabilizing.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import ProtocolError
from repro.graphs.network import RootedNetwork
from repro.graphs.properties import is_tree
from repro.runtime.actions import Action
from repro.runtime.configuration import Configuration
from repro.runtime.legitimacy import LocalLegitimacy
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.variables import VariableSpec, enum_variable

CLEAN = "C"
BROADCAST = "B"
FEEDBACK = "F"

VAR_PHASE = "pif_phase"


class PIFWave(Protocol):
    """Self-stabilizing broadcast-with-feedback waves on a rooted tree.

    Parameters
    ----------
    parents:
        Optional explicit parent map (e.g. extracted from a spanning-tree
        substrate).  When omitted, the network itself must be a tree and the
        parent of a processor is its neighbor on the unique path to the root.
    """

    name = "pif"

    ACTION_ERROR = "PIF-Error"
    ACTION_BROADCAST = "PIF-Broadcast"
    ACTION_FEEDBACK = "PIF-Feedback"
    ACTION_CLEAN = "PIF-Clean"
    ACTION_ROOT_START = "PIF-RootStart"
    ACTION_ROOT_RESET = "PIF-RootReset"

    def __init__(self, parents: Mapping[int, int | None] | None = None) -> None:
        self._explicit_parents = dict(parents) if parents is not None else None

    # ------------------------------------------------------------------
    def _parents(self, network: RootedNetwork) -> dict[int, int | None]:
        if self._explicit_parents is not None:
            return dict(self._explicit_parents)
        if not is_tree(network):
            raise ProtocolError(
                "PIFWave needs a tree network or an explicit spanning-tree parent map"
            )
        parents: dict[int, int | None] = {network.root: None}
        stack = [network.root]
        seen = {network.root}
        while stack:
            node = stack.pop()
            for neighbor in network.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    parents[neighbor] = node
                    stack.append(neighbor)
        return parents

    def _children(self, network: RootedNetwork, node: int) -> tuple[int, ...]:
        parents = self._parents(network)
        return tuple(q for q in network.neighbors(node) if parents.get(q) == node)

    # ------------------------------------------------------------------
    def variables(self, network: RootedNetwork, node: int) -> Sequence[VariableSpec]:
        return [
            enum_variable(
                VAR_PHASE,
                (CLEAN, BROADCAST, FEEDBACK),
                initial=CLEAN,
                description="PIF wave phase",
            )
        ]

    def actions(self, network: RootedNetwork, node: int) -> Sequence[Action]:
        parents = self._parents(network)
        children = self._children(network, node)
        parent = parents.get(node)

        def phase(view: ProcessorView) -> str:
            return view.read(VAR_PHASE)

        def children_phases(view: ProcessorView) -> list[str]:
            return [view.read_neighbor(child, VAR_PHASE) for child in children]

        if network.is_root(node):

            def start_guard(view: ProcessorView) -> bool:
                return phase(view) == CLEAN and all(p == CLEAN for p in children_phases(view))

            def start(view: ProcessorView) -> None:
                view.write(VAR_PHASE, BROADCAST)

            def reset_guard(view: ProcessorView) -> bool:
                return phase(view) == BROADCAST and all(
                    p == FEEDBACK for p in children_phases(view)
                )

            def reset(view: ProcessorView) -> None:
                view.write(VAR_PHASE, CLEAN)

            def root_error_guard(view: ProcessorView) -> bool:
                return phase(view) == FEEDBACK

            def root_error(view: ProcessorView) -> None:
                view.write(VAR_PHASE, CLEAN)

            return [
                Action(self.ACTION_ERROR, root_error_guard, root_error, layer=self.name, priority=0),
                Action(self.ACTION_ROOT_RESET, reset_guard, reset, layer=self.name, priority=1),
                Action(self.ACTION_ROOT_START, start_guard, start, layer=self.name, priority=2),
            ]

        def parent_phase(view: ProcessorView) -> str:
            return view.read_neighbor(parent, VAR_PHASE)

        def error_guard(view: ProcessorView) -> bool:
            # A non-clean processor whose parent is clean is a leftover of a
            # corrupted wave and collapses.
            return phase(view) != CLEAN and parent_phase(view) == CLEAN

        def error(view: ProcessorView) -> None:
            view.write(VAR_PHASE, CLEAN)

        def broadcast_guard(view: ProcessorView) -> bool:
            return phase(view) == CLEAN and parent_phase(view) == BROADCAST

        def broadcast(view: ProcessorView) -> None:
            view.write(VAR_PHASE, BROADCAST)

        def feedback_guard(view: ProcessorView) -> bool:
            return (
                phase(view) == BROADCAST
                and parent_phase(view) == BROADCAST
                and all(p == FEEDBACK for p in children_phases(view))
            )

        def feedback(view: ProcessorView) -> None:
            view.write(VAR_PHASE, FEEDBACK)

        def clean_guard(view: ProcessorView) -> bool:
            return phase(view) == FEEDBACK and parent_phase(view) == CLEAN

        return [
            Action(self.ACTION_ERROR, error_guard, error, layer=self.name, priority=0),
            Action(self.ACTION_CLEAN, clean_guard, error, layer=self.name, priority=1),
            Action(self.ACTION_BROADCAST, broadcast_guard, broadcast, layer=self.name, priority=2),
            Action(self.ACTION_FEEDBACK, feedback_guard, feedback, layer=self.name, priority=3),
        ]

    def legitimate(self, network: RootedNetwork, configuration: Configuration) -> bool:
        """Wave consistency: exactly the configurations normal waves visit.

        A configuration is legitimate iff

        * the root is not in feedback (it resets to clean instead),
        * every broadcasting non-root processor has a *broadcasting* parent
          (broadcasts enter a subtree only through its top), and
        * every child of a feedback processor is itself in feedback (a
          processor acknowledges only after its whole subtree has).

        These are invariants of normal operation -- closed under every
        action, from any daemon's scheduling -- which is what lets recovery
        measurements demand the predicate hold over a whole closure window.
        The scenario-driven corruption hunt caught the previous phrasing
        being too strict *and* too loose: it flagged the legal top-down
        cleaning phase (feedback below clean) as illegitimate, so confirmed
        re-stabilization could never be observed, while accepting a stale
        broadcast sitting below a feedback processor.
        """
        parents = self._parents(network)
        for node in network.nodes():
            own = configuration.get(node, VAR_PHASE)
            parent = parents.get(node)
            if parent is None:
                if own == FEEDBACK:
                    return False
                continue
            above = configuration.get(parent, VAR_PHASE)
            if own == BROADCAST and above != BROADCAST:
                return False
            if above == FEEDBACK and own != FEEDBACK:
                return False
        return True

    def local_legitimacy(self, network: RootedNetwork) -> LocalLegitimacy:
        """Per-node wave consistency against the tree parents, computed once per network."""
        parents = self._parents(network)

        def term(view: ProcessorView) -> tuple[tuple[int], None]:
            own = view.read(VAR_PHASE)
            parent = parents.get(view.node)
            if parent is None:
                return (int(own == FEEDBACK),), None
            above = view.read_neighbor(parent, VAR_PHASE)
            wrong = (own == BROADCAST and above != BROADCAST) or (
                above == FEEDBACK and own != FEEDBACK
            )
            return (int(wrong),), None

        return LocalLegitimacy(term)


__all__ = ["PIFWave", "CLEAN", "BROADCAST", "FEEDBACK", "VAR_PHASE"]
