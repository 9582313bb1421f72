"""Cutset algebra: minimisation, probabilities and aggregation.

A *cutset* is a set of basic events whose joint failure fails the top
gate; a *minimal cutset* (MCS) contains no smaller cutset (paper,
Section IV-A).  This module represents cutsets as ``frozenset[str]`` and
provides

* inclusion-minimisation of cutset families (:func:`minimize`),
* per-cutset probability ``p(C) = prod p(a)`` (:func:`cutset_probability`),
* the three standard aggregations of an MCS list: rare-event
  approximation, min-cut upper bound, and exact inclusion–exclusion
  (:class:`CutSetList`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "CutSet",
    "minimize",
    "cutset_probability",
    "CutSetList",
]

CutSet = frozenset  # type alias: a cutset is a frozen set of event names


#: Candidates up to this size use exhaustive subset enumeration (2^k
#: hash lookups); larger ones fall back to a per-element bucket scan.
_SUBSET_ENUM_LIMIT = 12


def minimize(cutsets: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    """Keep only the inclusion-minimal members of a family of sets.

    Candidates are processed in order of size, so any set that could
    dominate a candidate is already kept.  For the small cutsets typical
    of fault trees the dominance test enumerates every proper subset of
    the candidate (at most ``2^k`` hash lookups into the kept-set table)
    — constant work per candidate, unlike pairwise scans, which degrade
    quadratically when one frequent event appears in most cutsets.
    Oversized candidates fall back to scanning the kept sets bucketed by
    element.
    """
    by_size = sorted(set(cutsets), key=len)
    kept: list[frozenset[str]] = []
    kept_lookup: set[frozenset[str]] = set()
    buckets: dict[str, list[frozenset[str]]] = {}
    for candidate in by_size:
        if not candidate:
            return [candidate]  # the empty set subsumes everything
        if is_subsumed(candidate, kept_lookup, buckets):
            continue
        kept.append(candidate)
        kept_lookup.add(candidate)
        for element in candidate:
            buckets.setdefault(element, []).append(candidate)
    return kept


def is_subsumed(
    candidate: frozenset[str],
    kept_lookup: set[frozenset[str]],
    buckets: dict[str, list[frozenset[str]]],
) -> bool:
    """Whether some kept set is a (non-strict) subset of ``candidate``.

    ``kept_lookup`` and ``buckets`` must describe the same family (a
    hash set of all kept sets, and the kept sets indexed under each of
    their elements).  Exposed for the MOCUS search, which uses the same
    test to prune partial cutsets against already-completed ones.
    """
    if len(candidate) <= _SUBSET_ENUM_LIMIT:
        elements = sorted(candidate)
        # Enumerate subsets via bit masks, smallest first; include the
        # full set itself (an exact duplicate is subsumed too).
        for mask in range(1, 1 << len(elements)):
            subset = frozenset(
                elements[i] for i in range(len(elements)) if mask & (1 << i)
            )
            if subset in kept_lookup:
                return True
        return False
    checked: set[frozenset[str]] = set()
    for element in candidate:
        for small in buckets.get(element, ()):
            if small in checked:
                continue
            checked.add(small)
            if small <= candidate:
                return True
    return False


def cutset_probability(
    cutset: frozenset[str], probabilities: Mapping[str, float]
) -> float:
    """Probability that all events of ``cutset`` fail, ``prod p(a)``.

    This equals the total probability of all scenarios the cutset
    represents (paper, Section IV-A property ii), thanks to event
    independence.

    Factors multiply in sorted-name order so the rounded product is a
    pure function of the *logical* set: frozensets iterate in
    hash-table order, which varies with construction history, and an
    order-dependent product would make cutoff-boundary membership and
    probability-tie sort order differ between runs that built the same
    cutset differently (cold search vs warm cache vs incremental
    recomposition).
    """
    result = 1.0
    for name in sorted(cutset):
        result *= probabilities[name]
    return result


@dataclass(frozen=True)
class CutSetList:
    """An ordered list of (minimal) cutsets with aggregation helpers.

    Construction does not re-minimise; use :meth:`from_cutsets` to
    minimise and sort by descending probability in one step.  Each
    cutset's probability is computed once per list and cached
    (:meth:`weights`): sorting, truncation and every aggregation read
    the same products.
    """

    cutsets: tuple[frozenset[str], ...]
    probabilities: Mapping[str, float]
    _weights: tuple[float, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_cutsets(
        cls,
        cutsets: Iterable[frozenset[str]],
        probabilities: Mapping[str, float],
        minimal: bool = False,
    ) -> "CutSetList":
        """Build a list, minimising (unless already minimal) and sorting.

        Cutsets are ordered by descending probability and then
        lexicographically for determinism.
        """
        family = list(cutsets) if minimal else minimize(cutsets)
        weighted = [
            (-cutset_probability(c, probabilities), sorted(c), c) for c in family
        ]
        weighted.sort(key=lambda item: (item[0], item[1]))
        return cls._weighted(
            tuple(c for _, _, c in weighted),
            probabilities,
            tuple(-p for p, _, _ in weighted),
        )

    @classmethod
    def _weighted(
        cls,
        cutsets: tuple[frozenset[str], ...],
        probabilities: Mapping[str, float],
        weights: tuple[float, ...],
    ) -> "CutSetList":
        """A list whose per-cutset probabilities are already known."""
        result = cls(cutsets, probabilities)
        object.__setattr__(result, "_weights", weights)
        return result

    def weights(self) -> tuple[float, ...]:
        """``cutset_probability`` of every cutset, in list order."""
        if self._weights is None:
            object.__setattr__(
                self,
                "_weights",
                tuple(cutset_probability(c, self.probabilities) for c in self.cutsets),
            )
        assert self._weights is not None
        return self._weights

    def __len__(self) -> int:
        return len(self.cutsets)

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.cutsets)

    def __getitem__(self, index: int) -> frozenset[str]:
        return self.cutsets[index]

    def probability_of(self, index: int) -> float:
        """Probability of the ``index``-th cutset."""
        return self.weights()[index]

    def rare_event(self) -> float:
        """Rare-event approximation: the sum of cutset probabilities.

        An over-approximation of the true failure probability because
        scenarios represented by several MCSs are counted once per MCS
        (paper, Section IV-A property iii).
        """
        return sum(self.weights())

    def sound_estimate(self) -> tuple[float, str]:
        """A sound aggregation: ``(value, estimator)``.

        The rare-event sum is a provable over-approximation that can
        exceed 1.0 on high-probability models — the classical overshoot
        bug of first-order quantification.  This accessor serves the raw
        sum while it is a probability and switches to the (always sound,
        always tighter) :meth:`min_cut_upper_bound` the moment the sum
        overshoots, naming which estimator produced the value:
        ``"rare-event"`` or ``"min-cut-ub"``.
        """
        total = self.rare_event()
        if total > 1.0:
            return self.min_cut_upper_bound(), "min-cut-ub"
        return total, "rare-event"

    def largest_cutset_probability(self) -> float:
        """Probability of the most likely single cutset (0.0 when empty).

        A sound *lower* bound on the top-event probability of a coherent
        tree — the floor of the bracket
        ``largest <= exact <= rare-event sum`` the cross-checks assert.
        """
        return max(self.weights(), default=0.0)

    def min_cut_upper_bound(self) -> float:
        """The MCUB aggregation ``1 - prod (1 - p(C))``.

        Tighter than the rare-event sum and still an upper bound for
        coherent trees; exact when cutsets are disjoint.
        """
        log_complement = 0.0
        for p in self.weights():
            if p >= 1.0:
                return 1.0
            log_complement += math.log1p(-p)
        return -math.expm1(log_complement)

    def inclusion_exclusion(self, max_terms: int | None = None) -> float:
        """Exact probability of the union by inclusion–exclusion.

        Exponential in the number of cutsets (``2^n - 1`` terms); the
        paper notes this is infeasible for large models, so callers must
        keep lists short.  ``max_terms`` truncates the expansion at a
        given intersection order, alternating between upper (odd orders)
        and lower (even orders) Bonferroni bounds.
        """
        n = len(self.cutsets)
        if max_terms is None:
            max_terms = n
        if n > 24 and max_terms >= n:
            raise ValueError(
                f"inclusion-exclusion over {n} cutsets is infeasible; "
                f"pass max_terms to truncate"
            )
        total = 0.0
        sign = 1.0
        for order in range(1, max_terms + 1):
            layer = 0.0
            for combo in itertools.combinations(self.cutsets, order):
                union: frozenset[str] = frozenset().union(*combo)
                layer += cutset_probability(union, self.probabilities)
            total += sign * layer
            sign = -sign
        return total

    def truncate(self, cutoff: float) -> "CutSetList":
        """Drop cutsets whose probability is at or below ``cutoff``."""
        kept = [
            (c, p) for c, p in zip(self.cutsets, self.weights()) if p > cutoff
        ]
        return CutSetList._weighted(
            tuple(c for c, _ in kept), self.probabilities, tuple(p for _, p in kept)
        )

    def filtered(
        self, predicate: Callable[[frozenset[str]], bool]
    ) -> "CutSetList":
        """Keep only cutsets satisfying ``predicate``, preserving order."""
        return CutSetList(
            tuple(c for c in self.cutsets if predicate(c)), self.probabilities
        )

    def size_histogram(self) -> dict[int, int]:
        """Map cutset size to the number of cutsets of that size."""
        histogram: dict[int, int] = {}
        for cutset in self.cutsets:
            histogram[len(cutset)] = histogram.get(len(cutset), 0) + 1
        return dict(sorted(histogram.items()))

    def events_involved(self) -> frozenset[str]:
        """All basic events that appear in at least one cutset."""
        involved: set[str] = set()
        for cutset in self.cutsets:
            involved |= cutset
        return frozenset(involved)


def verify_minimal(
    cutsets: Sequence[frozenset[str]],
) -> bool:
    """Return whether no cutset in the family contains another.

    Quadratic; intended for tests and assertions, not hot paths.
    """
    for a, b in itertools.permutations(cutsets, 2):
        if a < b:
            return False
    return True
