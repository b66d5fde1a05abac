"""Incremental legitimacy: per-node local predicates kept off the change journal.

Self-stabilization is stated against a protocol's legitimacy predicate, and
everything that *watches* a run asks it after every step: the stabilization
harness, the scheduler's run loops, the scenario runner, telemetry and the
health watchdog.  Evaluated whole, each question costs O(n + m); on a protocol
that never goes silent (DFTNO's token keeps circulating through the whole
closure window) that costs more than the steps themselves.

A layer avoids the cost by splitting its predicate in two
(:meth:`~repro.runtime.protocol.Protocol.local_legitimacy`):

* a **local term** per processor, computed through a
  :class:`~repro.runtime.processor.ProcessorView` from the processor's
  closed neighbourhood only: a tuple of small counts plus an optional *key*;
* a **global aggregate** over the terms: ``accept(totals, duplicates)``
  receives the per-component sums of the counts over all processors and the
  number of key collisions (processors carrying a key that another processor
  already carries).

:class:`LegitimacyMonitor` keeps every term and the sums.  It registers as a
:class:`~repro.runtime.configuration.Configuration` watcher, so it sees every
step write, scenario mutation and ``replace_node``; on a query it recomputes
only the terms of the closed neighbourhoods of the processors whose *layer*
variables changed.  That is sound for the reason the incremental enabled-set
is: a term at ``p`` reads only ``p`` and its neighbours, so a change at ``q``
can alter only the terms at ``q`` and at ``q``'s neighbours.  A local
predicate must also read only the variables its own layer declares -- a
change to another layer's variables does not re-evaluate it.

``Protocol.legitimate`` stays the reference oracle.  A layer that offers no
decomposition is evaluated through it, on the first query after any change.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Sequence

from repro.errors import ProtocolError
from repro.runtime.processor import ProcessorView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.network import RootedNetwork
    from repro.runtime.configuration import Configuration
    from repro.runtime.protocol import Protocol


def all_zero(totals: Sequence[int], duplicates: int) -> bool:
    """The default aggregate: no processor counted anything, no key collides."""
    return duplicates == 0 and not any(totals)


@dataclass(frozen=True)
class LocalLegitimacy:
    """One layer's legitimacy predicate as local terms plus a count aggregate.

    ``term(view)`` returns ``(counts, key)`` for the view's processor and may
    read only that processor's closed neighbourhood, and only variables its
    layer declares; ``key`` is ``None`` for layers that track no
    multiplicities.  ``accept(totals, duplicates)`` decides legitimacy from
    the component-wise sums of the counts and the number of key collisions.
    """

    term: Callable[[ProcessorView], Any]
    accept: Callable[[Sequence[int], int], bool] = all_zero


class _LayerState:
    """The maintained terms and aggregate of one decomposed layer."""

    __slots__ = ("layer", "local", "terms", "totals", "keys", "duplicates", "dirty", "verdict")

    def __init__(self, layer: "Protocol", local: LocalLegitimacy | None) -> None:
        self.layer = layer
        self.local = local
        self.terms: list = []
        self.totals: list[int] = []
        self.keys: dict[Hashable, int] = {}
        self.duplicates = 0
        self.dirty: set[int] = set()
        self.verdict = False

    def reset(self, network: "RootedNetwork", configuration: "Configuration") -> None:
        term = self.local.term
        self.terms = [term(ProcessorView(node, network, configuration)) for node in network.nodes()]
        self.totals = [sum(column) for column in zip(*(counts for counts, _ in self.terms))]
        self.keys = {}
        self.duplicates = 0
        for _, key in self.terms:
            self._add_key(key)
        self.dirty.clear()
        self.verdict = bool(self.local.accept(self.totals, self.duplicates))

    def _add_key(self, key: Hashable | None) -> None:
        if key is not None:
            count = self.keys.get(key, 0)
            if count:
                self.duplicates += 1
            self.keys[key] = count + 1

    def _remove_key(self, key: Hashable | None) -> None:
        if key is not None:
            count = self.keys[key] - 1
            if count:
                self.duplicates -= 1
                self.keys[key] = count
            else:
                del self.keys[key]

    def update(self, node: int, network: "RootedNetwork", configuration: "Configuration") -> None:
        old = self.terms[node]
        new = self.local.term(ProcessorView(node, network, configuration))
        if new == old:
            return
        self.terms[node] = new
        (old_counts, old_key), (new_counts, new_key) = old, new
        if old_counts != new_counts:
            totals = self.totals
            for index, (before, after) in enumerate(zip(old_counts, new_counts)):
                totals[index] += after - before
        if old_key != new_key:
            self._remove_key(old_key)
            self._add_key(new_key)


class _ChangeJournal:
    """The monitor's configuration watcher: which layers' terms went stale where.

    Kept apart from the monitor, and holding only the dirty sets, so the
    configuration that calls it keeps no reference back to the monitor.
    """

    __slots__ = ("by_variable", "every_layer", "stale")

    def __init__(self, by_variable: dict[str, set[int]], every_layer: list[set[int]]) -> None:
        self.by_variable = by_variable
        self.every_layer = every_layer
        self.stale = True

    def __call__(self, node: int, variables: "tuple[str, ...] | None") -> None:
        self.stale = True
        if variables is None:
            for dirty in self.every_layer:
                dirty.add(node)
        else:
            by_variable = self.by_variable
            for name in variables:
                dirty = by_variable.get(name)
                if dirty is not None:
                    dirty.add(node)


class LegitimacyMonitor:
    """Per-layer legitimacy verdicts of a run, maintained incrementally.

    ``owner`` is the object whose ``protocol``, ``network`` and
    ``configuration`` attributes describe the run (the scheduler); the
    monitor holds it weakly.  The monitor is built on the first query, not at
    construction, and rebuilt on the first query after ``owner.configuration``
    or ``owner.network`` became a different object -- which is what
    ``set_configuration`` (a fresh copy) and ``set_network`` (a new topology)
    do.
    """

    def __init__(self, owner: Any) -> None:
        self._owner = weakref.ref(owner)
        self._layers: tuple["Protocol", ...] = tuple(dict.fromkeys(owner.protocol.layers()))
        self._network: "RootedNetwork | None" = None
        self._configuration: "Configuration | None" = None
        self._journal: _ChangeJournal | None = None
        self._states: list[_LayerState] = []
        self._decomposed: list[_LayerState] = []
        self._by_layer: dict[int, _LayerState] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def legitimate(self, of: "Protocol | None" = None) -> bool:
        """Whether every layer of ``of`` (default: the whole protocol) is legitimate.

        ``of`` must be the monitored protocol or a sub-stack of it (e.g. the
        substrate under an orientation layer).
        """
        self._refresh()
        if of is None:
            return all(state.verdict for state in self._states)
        try:
            return all(self._by_layer[id(layer)].verdict for layer in of.layers())
        except KeyError:
            raise ProtocolError(
                f"protocol {of.name!r} is not a layer stack of the monitored protocol"
            ) from None

    def verdicts(self) -> dict["Protocol", bool]:
        """Each layer's legitimacy verdict, in ``protocol.layers()`` order."""
        self._refresh()
        return {state.layer: state.verdict for state in self._states}

    def audit(self) -> bool:
        """Confirm every maintained verdict with its layer's reference predicate.

        Costs one :meth:`~repro.runtime.protocol.Protocol.legitimate` call per
        decomposed layer, so it runs once per reported result, not per step:
        the verdict a result carries is then the oracle's too.  Returns the
        whole protocol's verdict; raises
        :class:`~repro.errors.ProtocolError` naming the first layer whose
        decomposition disagrees with its reference predicate.
        """
        self._refresh()
        for state in self._decomposed:
            reference = bool(state.layer.legitimate(self._network, self._configuration))
            if reference != state.verdict:
                raise ProtocolError(
                    f"legitimacy monitor says {state.verdict} for layer "
                    f"{state.layer.name!r} but its reference predicate says {reference}"
                )
        return all(state.verdict for state in self._states)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _affected(self, node: int) -> Iterable[int]:
        """Processors whose term may read ``node``: its closed neighbourhood."""
        return (node, *self._network.neighbors(node))

    def _build(self) -> None:
        owner = self._owner()
        if self._journal is not None:
            self._configuration.discard_watcher(self._journal)
        network, configuration = owner.network, owner.configuration
        self._network, self._configuration = network, configuration
        self._states = []
        by_variable: dict[str, set[int]] = {}
        for layer in self._layers:
            state = _LayerState(layer, layer.local_legitimacy(network))
            self._states.append(state)
            if state.local is not None:
                for node in network.nodes():
                    for name in layer.variable_names(network, node):
                        by_variable[name] = state.dirty
                state.reset(network, configuration)
        self._decomposed = [state for state in self._states if state.local is not None]
        self._by_layer = {id(state.layer): state for state in self._states}
        self._journal = _ChangeJournal(by_variable, [state.dirty for state in self._decomposed])
        configuration.add_watcher(self._journal)

    def _refresh(self) -> None:
        owner = self._owner()
        if owner.configuration is not self._configuration or owner.network is not self._network:
            self._build()
        journal = self._journal
        if not journal.stale:
            return
        network, configuration = self._network, self._configuration
        nodes = network.nodes()
        for state in self._states:
            if state.local is None:
                state.verdict = bool(state.layer.legitimate(network, configuration))
            elif state.dirty:
                affected: set[int] = set()
                for node in state.dirty:
                    if node in nodes:  # skip foreign ids journaled by hand
                        affected.update(self._affected(node))
                state.dirty.clear()
                for node in affected:
                    state.update(node, network, configuration)
                state.verdict = bool(state.local.accept(state.totals, state.duplicates))
        journal.stale = False


__all__ = ["LegitimacyMonitor", "LocalLegitimacy", "all_zero"]
