"""Incremental minimal-cutset generation for the what-if engine.

A cold cutset generation with probabilistic cutoff ``c*`` (the BDD walk
or MOCUS) produces exactly the minimal cutsets of the translated tree
whose probability exceeds ``c*`` (in-search pruning is conservative: a
partial's probability product only shrinks as events are added, so
every above-cutoff minimal cutset survives the search).  Anything that
reproduces *that set* and then goes through the same
``CutSetList.from_cutsets(...)`` + ``truncate(cutoff)`` construction is
element-for-element what a cold generation would have returned.

Two incremental strategies exploit this, in order of preference:

1. **Re-truncate** — when the edit left the gate structure untouched and
   no event probability *increased*, the previous run's pre-truncation
   family already contains every cutset that can be above the cutoff now
   (probabilities only fell), so re-truncating it locally is exact and
   skips the search entirely.

2. **Modular recomposition** — otherwise, decompose the tree into its
   maximal independent modules (Dutuit–Rauzy, :mod:`repro.ft.modules`).
   Because all probability factors are ``≤ 1``, every whole-tree cutset
   above ``c*`` projects onto each module as a module cutset above
   ``c*`` — so per-module families are computable by a plain
   ``mocus(subtree(M))`` at the *same* cutoff, and are content-addressed
   by the module subtree digest: an edit inside one module recomputes
   only that family.  A small *context tree* (each module gate collapsed
   to a basic event at its family's maximum cutset probability — an
   upper bound, so context pruning stays conservative) is re-searched
   every time, and the whole-tree family is the bound-pruned
   cross-product of context cutsets with module families.  For coherent
   AND/OR/ATLEAST trees this composition yields exactly the minimal
   cutsets of the whole tree.

Both paths end in the same canonical membership test the cold search
uses (``cutset_probability(C) > cutoff`` with a single fixed
multiplication order; see ``_CUTOFF_SLACK`` in :mod:`repro.ft.mocus`),
and all intermediate bound-pruning here carries the same ULP slack —
so boundary-straddling cutsets resolve identically warm and cold.  A
probability parked *exactly on* the cutoff is still a single-rounding
coin flip; don't do that.

When neither strategy applies (module search overflow, overlapping
module report, oversized cross-product) the caller falls back to a full
MOCUS run; the fallback is always sound, never silent.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, neg, not_
from typing import Iterable

from repro.errors import CutoffError
from repro.ft.cutsets import CutSetList, cutset_probability
from repro.ft.mocus import (
    _CUTOFF_SLACK,
    MocusOptions,
    MocusResult,
    MocusStats,
    mocus,
)
from repro.ft.modules import find_modules
from repro.ft.tree import BasicEvent, FaultTree
from repro.perf.cache import tree_digest

__all__ = [
    "FamilyCache",
    "IncrementalStats",
    "ModuleFamily",
    "WeightedFamily",
    "incremental_cutsets",
]


@dataclass(frozen=True)
class ModuleFamily:
    """The above-cutoff minimal cutsets of one module subtree.

    ``cutsets`` are sorted name tuples (the pre-truncation family of a
    completed module search); ``max_probability`` is the largest cutset
    probability under the subtree's own event probabilities — the upper
    bound the context tree substitutes for the module.
    """

    cutsets: tuple[tuple[str, ...], ...]
    max_probability: float


@dataclass
class IncrementalStats:
    """What the incremental engine did for one re-analysis."""

    mode: str = "full"
    modules_total: int = 0
    modules_reused: int = 0
    modules_recomputed: int = 0
    context_cutsets: int = 0
    composed_cutsets: int = 0

    def summary(self) -> str:
        if self.mode == "retruncate":
            return (
                "incremental: structure unchanged, probabilities "
                "non-increasing; previous family re-truncated "
                f"({self.composed_cutsets} cutsets, search skipped)"
            )
        if self.mode == "modular":
            return (
                f"incremental: {self.modules_reused}/{self.modules_total} "
                f"module families reused, {self.modules_recomputed} "
                f"recomputed; {self.context_cutsets} context cutsets "
                f"composed into {self.composed_cutsets}"
            )
        return "incremental: fell back to a full MOCUS search"


class FamilyCache:
    """Content-addressed module families with LRU eviction.

    Keys cover the module subtree digest (structure *and* event
    probabilities) plus the search options, so a stale family can never
    be served after an edit that touches the module.
    """

    def __init__(self, max_entries: int = 512) -> None:
        self.max_entries = max_entries
        self._store: "OrderedDict[tuple, ModuleFamily]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: tuple) -> ModuleFamily | None:
        family = self._store.get(key)
        if family is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return family

    def put(self, key: tuple, family: ModuleFamily) -> None:
        self._store[key] = family
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)


def _structure_key(tree: FaultTree) -> tuple:
    """Everything MOCUS output depends on except event probabilities."""
    return (
        tree.top,
        frozenset(tree.events),
        tuple(
            sorted(
                (name, gate.gate_type.value, gate.children, gate.k)
                for name, gate in tree.gates.items()
            )
        ),
    )


def _non_increasing(new_tree: FaultTree, previous_tree: FaultTree) -> bool:
    previous = {
        name: event.probability for name, event in previous_tree.events.items()
    }
    return all(
        event.probability <= previous[name]
        for name, event in new_tree.events.items()
    )


def _product(names: tuple[str, ...], probabilities: dict[str, float]) -> float:
    """:func:`cutset_probability` of a sorted name tuple (same rounding)."""
    product = 1.0
    for name in names:
        product *= probabilities[name]
    return product


@dataclass(frozen=True)
class WeightedFamily:
    """A complete pre-truncation family in canonical list order.

    ``entries`` are ``(-p, names, cutset)`` triples in ascending order —
    the ``(-p, sorted names)`` key of :meth:`CutSetList.from_cutsets` —
    where ``names`` is the cutset's sorted name tuple and ``p`` its
    product in that order under ``probabilities`` (the
    :func:`cutset_probability` rounding).  The session keeps one per
    run, so a re-truncation re-weighs only the cutsets an edit touched.
    """

    entries: tuple[tuple[float, tuple[str, ...], frozenset[str]], ...]
    probabilities: dict[str, float]

    @classmethod
    def of(
        cls,
        family: Iterable[tuple[str, ...]],
        tree: FaultTree,
        cutsets: Iterable[frozenset[str]] = (),
    ) -> "WeightedFamily":
        """Weigh a *minimal* family of sorted name tuples under ``tree``.

        A member equal to one of ``cutsets`` (the run's record keys)
        takes that very frozenset, so the next run's record lookups
        match by identity instead of hashing and comparing a copy.
        """
        probabilities = _probabilities(tree)
        known = {cutset: cutset for cutset in cutsets}
        entries = []
        for names in family:
            cutset = frozenset(names)
            entries.append(
                (
                    -_product(names, probabilities),
                    names,
                    known.get(cutset, cutset),
                )
            )
        entries.sort()
        return cls(tuple(entries), probabilities)

    def reweighed(self, tree: FaultTree) -> "WeightedFamily":
        """The same family under the event probabilities of ``tree``.

        Only cutsets containing an event whose probability changed get a
        new product; every other entry keeps its triple — the identical
        factors in the identical order give the identical float — and
        with it the previous run's frozenset.  The re-weighed entries
        are sorted and merged into the untouched ones: each goes in at
        its bisection point, and the untouched runs between them are
        copied as slices, so no comparison re-checks the untouched
        order.
        """
        probabilities = _probabilities(tree)
        previous = self.probabilities
        changed = {
            name for name, p in probabilities.items() if previous.get(name) != p
        }
        if not changed:
            return WeightedFamily(self.entries, probabilities)
        untouched = [changed.isdisjoint(entry[2]) for entry in self.entries]
        kept = list(compress(self.entries, untouched))
        moved = sorted(
            (-_product(names, probabilities), names, cutset)
            for _, names, cutset in compress(self.entries, map(not_, untouched))
        )
        entries = []
        start = 0
        for entry in moved:
            stop = bisect_left(kept, entry, start)
            entries += kept[start:stop]
            entries.append(entry)
            start = stop
        entries += kept[start:]
        return WeightedFamily(tuple(entries), probabilities)

    def result(self, cutoff: float) -> MocusResult:
        """Mirror :meth:`CutSetList.from_cutsets` + ``truncate`` exactly.

        The entries are already in list order, so the truncation to the
        analyzer's rule (``p > cutoff`` when the cutoff is positive) is
        a prefix.
        """
        entries = self.entries
        kept = entries
        if cutoff > 0.0:
            kept = entries[: bisect_left(entries, -cutoff, key=itemgetter(0))]
        cutsets = CutSetList._weighted(
            tuple(map(itemgetter(2), kept)),
            self.probabilities,
            tuple(map(neg, map(itemgetter(0), kept))),
        )
        full = tuple(map(itemgetter(1), entries))
        stats = MocusStats(completed=len(entries), minimal=len(entries))
        return MocusResult(cutsets, stats=stats, full_cutsets=full)


def _probabilities(tree: FaultTree) -> dict[str, float]:
    return {name: event.probability for name, event in tree.events.items()}


def _complete_family(result: MocusResult) -> tuple[tuple[str, ...], ...]:
    """The pre-truncation family of a completed (un-truncated) search."""
    if result.full_cutsets:
        return result.full_cutsets
    return tuple(sorted(tuple(sorted(cutset)) for cutset in result.cutsets))


def incremental_cutsets(
    tree: FaultTree,
    options: MocusOptions,
    families: FamilyCache,
    previous_tree: FaultTree | None = None,
    previous_family: WeightedFamily | None = None,
) -> tuple[MocusResult, IncrementalStats, WeightedFamily | None] | None:
    """Generate the cutsets of ``tree`` reusing previous work.

    Returns ``None`` when no incremental strategy applies — the caller
    must then run a full MOCUS search (cold behaviour).  On success the
    returned :class:`MocusResult` is element-for-element what a cold
    search of ``tree`` would produce (modulo the documented cutoff
    float-boundary caveat), with ``full_cutsets`` populated so the next
    edit can take the re-truncate fast path.  The third element is the
    re-weighed family of a re-truncation (``None`` on the modular path).
    """
    if (
        previous_tree is not None
        and previous_family is not None
        and previous_family.entries
        and _structure_key(tree) == _structure_key(previous_tree)
        and _non_increasing(tree, previous_tree)
    ):
        family = previous_family.reweighed(tree)
        result = family.result(options.cutoff)
        stats = IncrementalStats(
            mode="retruncate", composed_cutsets=len(result.cutsets)
        )
        return result, stats, family
    try:
        found = _modular(tree, options, families)
    except CutoffError:
        # A module or context search overflowed its partials limit;
        # let the cold pipeline handle (and report) the blow-up.
        return None
    if found is None:
        return None
    return (*found, None)


def _modular(
    tree: FaultTree, options: MocusOptions, families: FamilyCache
) -> tuple[MocusResult, IncrementalStats] | None:
    stats = IncrementalStats(mode="modular")
    reach = tree.reachable_from_top()
    report = find_modules(tree)
    chosen = [
        name for name in report.maximal if name in reach and name != tree.top
    ]
    stats.modules_total = len(chosen)

    # Maximal modules are pairwise disjoint for well-formed trees; if the
    # report ever says otherwise, collapsing them would double-count —
    # bail out to the full search instead of risking a wrong answer.
    covered_gates: set[str] = set()
    covered_events: set[str] = set()
    total_nodes = 0
    for name in chosen:
        gates = tree.gates_under(name)
        events = tree.events_under(name)
        total_nodes += len(gates) + len(events)
        covered_gates |= gates
        covered_events |= events
    if total_nodes != len(covered_gates) + len(covered_events):
        return None

    family_by_module: dict[str, ModuleFamily] = {}
    for name in chosen:
        subtree = tree.subtree(name)
        key = (tree_digest(subtree), repr(options.cutoff), options.max_partials)
        family = families.get(key)
        if family is None:
            result = mocus(subtree, options)
            if result.truncated:  # pragma: no cover - no budget in play
                return None
            cutsets = _complete_family(result)
            probabilities = {
                n: event.probability for n, event in subtree.events.items()
            }
            max_probability = max(
                (
                    cutset_probability(frozenset(c), probabilities)
                    for c in cutsets
                ),
                default=0.0,
            )
            family = ModuleFamily(cutsets, max_probability)
            families.put(key, family)
            stats.modules_recomputed += 1
        else:
            stats.modules_reused += 1
        family_by_module[name] = family

    context_events = [
        event
        for name, event in tree.events.items()
        if name in reach and name not in covered_events
    ]
    context_events += [
        BasicEvent(name, family_by_module[name].max_probability)
        for name in chosen
    ]
    context_gates = [
        gate
        for name, gate in tree.gates.items()
        if name in reach and name not in covered_gates
    ]
    context = FaultTree(
        tree.top, context_events, context_gates, name=f"{tree.name}#context"
    )
    context_result = mocus(context, options)
    if context_result.truncated:  # pragma: no cover - no budget in play
        return None
    context_family = _complete_family(context_result)
    stats.context_cutsets = len(context_family)

    composed = _compose(
        tree, context_family, family_by_module, set(chosen), options
    )
    if composed is None:
        return None
    stats.composed_cutsets = len(composed)
    # The composition of minimal context cutsets with minimal module
    # families is minimal for disjoint modules (each composed set
    # uniquely determines its context cutset and module selections), so
    # `minimal=False` only re-checks what the theorem guarantees — cheap
    # insurance against a bad module report.
    probabilities = _probabilities(tree)
    pre = CutSetList.from_cutsets(composed, probabilities, minimal=False)
    cutsets = pre.truncate(options.cutoff) if options.cutoff > 0.0 else pre
    full = tuple(sorted(tuple(sorted(cutset)) for cutset in pre))
    mocus_stats = MocusStats(completed=len(composed), minimal=len(pre))
    return MocusResult(cutsets, stats=mocus_stats, full_cutsets=full), stats


def _compose(
    tree: FaultTree,
    context_family: tuple[tuple[str, ...], ...],
    family_by_module: dict[str, ModuleFamily],
    chosen: set[str],
    options: MocusOptions,
) -> list[frozenset[str]] | None:
    """Bound-pruned cross-product expansion of context cutsets.

    Pruning discards a branch only when the *maximum possible* completed
    probability is at or below the cutoff — every discarded composition
    would have been pruned (or truncated) by the cold search too.
    """
    probabilities = _probabilities(tree)
    use_cutoff = options.cutoff > 0.0
    cutoff = options.cutoff
    expansions: dict[str, list[tuple[tuple[str, ...], float]]] = {}
    for name, family in family_by_module.items():
        selections = [
            (cutset, cutset_probability(frozenset(cutset), probabilities))
            for cutset in family.cutsets
        ]
        selections.sort(key=lambda item: (-item[1], item[0]))
        expansions[name] = selections

    composed: list[frozenset[str]] = []
    overflow = False

    def expand(
        modules: list[str],
        suffix: list[float],
        index: int,
        events: list[str],
        probability: float,
    ) -> None:
        nonlocal overflow
        if overflow or (
            use_cutoff
            and probability * suffix[index] * _CUTOFF_SLACK <= cutoff
        ):
            return
        if index == len(modules):
            composed.append(frozenset(events))
            if len(composed) > options.max_cutsets:
                overflow = True
            return
        for selection, p_selection in expansions[modules[index]]:
            if (
                use_cutoff
                and probability * p_selection * suffix[index + 1] * _CUTOFF_SLACK
                <= cutoff
            ):
                # Selections are sorted by descending probability: every
                # later selection bounds out too.
                break
            expand(
                modules,
                suffix,
                index + 1,
                events + list(selection),
                probability * p_selection,
            )

    for context_cutset in context_family:
        base = [name for name in context_cutset if name not in chosen]
        modules = [name for name in context_cutset if name in chosen]
        probability = 1.0
        for name in base:
            probability *= probabilities[name]
        suffix = [1.0] * (len(modules) + 1)
        for i in range(len(modules) - 1, -1, -1):
            suffix[i] = (
                suffix[i + 1] * family_by_module[modules[i]].max_probability
            )
        expand(modules, suffix, 0, base, probability)
        if overflow:
            return None
    return composed
