"""Fault tree → BDD compilation: exact probability, exact minimal cutsets.

This is the exact counterpart of the MOCUS pipeline.  A coherent fault
tree compiles bottom-up into one BDD per gate; the top gate's BDD gives

* the exact failure probability ``p(FT)`` in time linear in BDD size
  (no rare-event error, no cutoff), and
* the exact family of minimal cutsets, extracted with the classical
  recursion for monotone functions (Rauzy-style minimal solutions,
  materialised as explicit sets with per-node memoisation).

This module is the production static engine's compiler (wrapped by
:mod:`repro.bdd.quantify`, which adds ordering selection and module-wise
decomposition), the analyzer's default cutset generator
(:func:`bdd_cutsets`: compile → minimal-solutions BDD → cutoff-pruned
path walk, with MOCUS as the fallback) and the exact oracle the
differential cross-checks and the A1 ablation benchmark compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bdd.engine import FALSE, TRUE, BddManager
from repro.bdd.ordering import dfs_order
from repro.errors import CutoffError
from repro.ft.cutsets import CutSetList
from repro.ft.mocus import _CUTOFF_SLACK, MocusOptions, MocusResult, MocusStats
from repro.ft.tree import FaultTree, GateType
from repro.robust import faults

__all__ = [
    "CompiledTree",
    "bdd_cutsets",
    "compile_tree",
    "exact_probability",
    "exact_mcs",
]


@dataclass
class CompiledTree:
    """A fault tree compiled to a BDD.

    Holds the manager, the root node of the top gate, the variable order
    used and per-gate roots (useful when sub-gates must be queried, e.g.
    for trigger-gate analyses).
    """

    tree: FaultTree
    manager: BddManager
    root: int
    order: tuple[str, ...]
    gate_roots: dict[str, int]

    @property
    def node_count(self) -> int:
        """Number of BDD nodes reachable from the top root."""
        return self.manager.count_nodes(self.root)

    def probability(self) -> float:
        """Exact top-event probability."""
        probabilities = {
            i: self.tree.events[name].probability
            for i, name in enumerate(self.order)
        }
        return self.manager.probability(self.root, probabilities)

    def minimal_cutsets(self, method: str = "sets") -> CutSetList:
        """Exact minimal cutsets of the top gate.

        ``method`` selects the extraction: ``"sets"`` materialises
        per-node solution families (simple, memory-bound by the MCS
        count), ``"bdd"`` runs the classical minimal-solutions BDD
        recursion (:meth:`repro.bdd.engine.BddManager.minsol`) and reads
        the paths.  Both give identical families (property-tested).
        """
        return self.minimal_cutsets_of(self.tree.top, method)

    def minimal_cutsets_of(self, gate_name: str, method: str = "sets") -> CutSetList:
        """Exact minimal cutsets of an arbitrary gate of the tree."""
        root = self.gate_roots[gate_name]
        if method == "sets":
            sets = _minimal_solutions(self.manager, root)
        elif method == "bdd":
            sets = self.manager.minimal_solution_sets(root)
        else:
            raise ValueError(f"unknown extraction method {method!r}")
        named = [
            frozenset(self.order[i] for i in solution) for solution in sets
        ]
        probabilities = {n: e.probability for n, e in self.tree.events.items()}
        return CutSetList.from_cutsets(named, probabilities, minimal=True)


def compile_tree(
    tree: FaultTree,
    order: Sequence[str] | None = None,
    node_budget: int | None = None,
) -> CompiledTree:
    """Compile every gate of ``tree`` into a shared-manager BDD.

    ``order`` optionally fixes the variable order (a permutation of the
    event names); the default is the DFS heuristic of
    :func:`repro.bdd.ordering.dfs_order`.  ``node_budget`` caps the
    manager's node table: a compilation that would grow past it raises
    :class:`~repro.errors.BddBudgetExceeded` instead of thrashing.
    """
    chosen = list(order) if order is not None else dfs_order(tree)
    if sorted(chosen) != sorted(tree.events):
        raise ValueError("order must be a permutation of the tree's basic events")
    index = {name: i for i, name in enumerate(chosen)}
    manager = BddManager(node_budget=node_budget)
    node_of: dict[str, int] = {
        name: manager.var(index[name]) for name in tree.events
    }
    for gate in tree.gates_bottom_up():
        children = [node_of[c] for c in gate.children]
        if gate.gate_type is GateType.AND:
            node_of[gate.name] = manager.conjoin(children)
        elif gate.gate_type is GateType.OR:
            node_of[gate.name] = manager.disjoin(children)
        else:
            assert gate.k is not None
            node_of[gate.name] = manager.atleast(gate.k, children)
    gate_roots = {name: node_of[name] for name in tree.gates}
    return CompiledTree(tree, manager, node_of[tree.top], tuple(chosen), gate_roots)


def exact_probability(tree: FaultTree) -> float:
    """Exact ``p(FT)`` (compile + evaluate in one call)."""
    return compile_tree(tree).probability()


def exact_mcs(tree: FaultTree) -> CutSetList:
    """Exact minimal cutsets of ``tree`` (compile + extract in one call)."""
    return compile_tree(tree).minimal_cutsets()


def bdd_cutsets(
    tree: FaultTree,
    options: MocusOptions | None = None,
    node_budget: int | None = None,
) -> MocusResult:
    """Minimal cutsets above the cutoff, generated from the BDD.

    The drop-in replacement for :func:`repro.ft.mocus.mocus` on an
    unconstrained search: compile the tree, build the minimal-solutions
    BDD of the top gate (every path to TRUE is one minimal cutset,
    spelled by its positive literals), then walk those paths depth
    first.  Each node carries the largest probability product of any
    path below it, so a branch is cut as soon as ``running * bound``
    cannot clear the cutoff — the same ``_CUTOFF_SLACK`` in-search test
    MOCUS applies to its partials, which keeps boundary-straddling sets
    alive for the canonical :meth:`CutSetList.truncate` to decide.  The
    returned list (in order) and the ``full_cutsets`` family are
    therefore those of a MOCUS search (asserted by
    ``tests/bdd/test_cutset_generation.py``).

    ``node_budget`` caps the manager's node table; compile or ``minsol``
    growing past it raises :class:`~repro.errors.BddBudgetExceeded` and
    the caller falls back to MOCUS.  ``options.max_cutsets`` caps the
    enumeration (:class:`~repro.errors.CutoffError`); ``max_partials``
    belongs to MOCUS and is ignored here.
    """
    opts = options or MocusOptions()
    faults.check("mocus")
    compiled = compile_tree(tree, node_budget=node_budget)
    manager = compiled.manager
    root = manager.minsol(compiled.root)
    use_cutoff = opts.cutoff > 0.0
    probability = [tree.events[name].probability for name in compiled.order]

    # Per non-terminal node: (variable, low, high) and bound[n], the
    # largest product of positive-literal probabilities on any path from
    # n to TRUE (0.0 when TRUE is unreachable).  Children come first.
    shape: dict[int, tuple[int, int, int]] = {}
    bound: dict[int, float] = {FALSE: 0.0, TRUE: 1.0}
    for node in manager._nodes_below(root):
        var = manager.top_var(node)
        low, high = manager.cofactors(node, var)
        shape[node] = (var, low, high)
        bound[node] = max(bound[low], probability[var] * bound[high])

    stats = MocusStats(bdd_nodes=len(shape))
    found: list[frozenset[str]] = []
    # Frames are (node, running product, chosen variables as a linked
    # list (var, rest)); the walk is iterative, so deep chains never
    # touch the recursion limit.
    stack: list[tuple[int, float, tuple | None]] = [(root, 1.0, None)]
    while stack:
        node, running, chosen = stack.pop()
        if node == FALSE:
            continue
        if use_cutoff and running * bound[node] * _CUTOFF_SLACK <= opts.cutoff:
            stats.partials_cut_off += 1
            continue
        if node == TRUE:
            names: list[str] = []
            while chosen is not None:
                names.append(compiled.order[chosen[0]])
                chosen = chosen[1]
            found.append(frozenset(names))
            if len(found) > opts.max_cutsets:
                raise CutoffError(
                    f"BDD cutset walk exceeded max_cutsets={opts.max_cutsets}; "
                    f"raise the cutoff or the limit"
                )
            continue
        stats.partials_expanded += 1
        var, low, high = shape[node]
        stack.append((low, running, chosen))
        stack.append((high, running * probability[var], (var, chosen)))

    stats.completed = stats.minimal = len(found)
    probabilities = {name: e.probability for name, e in tree.events.items()}
    cutsets = CutSetList.from_cutsets(found, probabilities, minimal=True)
    full = tuple(tuple(sorted(cutset)) for cutset in found)
    if use_cutoff:
        cutsets = cutsets.truncate(opts.cutoff)
    return MocusResult(cutsets, stats, full_cutsets=full, engine="bdd")


def _minimal_solutions(manager: BddManager, root: int) -> list[frozenset[int]]:
    """Minimal solutions of a monotone BDD, as explicit variable sets.

    The recursion over the positive Shannon expansion
    ``f = x·f_high + f_low`` of a monotone function:

    * every minimal solution of ``f_low`` is one of ``f``;
    * a minimal solution ``m`` of ``f_high`` yields ``{x} ∪ m`` unless
      some minimal solution of ``f_low`` is contained in ``m`` (then it
      is subsumed).

    Memoised per BDD node, so shared subfunctions are solved once.  The
    result is materialised as Python sets, which bounds scalability by
    the number of minimal cutsets — acceptable for an exact oracle.
    """
    cache: dict[int, list[frozenset[int]]] = {
        FALSE: [],
        TRUE: [frozenset()],
    }

    order = manager._nodes_below(root)
    for node in order:
        var = manager.top_var(node)
        low, high = manager.cofactors(node, var)
        low_solutions = cache[low]
        high_solutions = cache[high]
        kept: list[frozenset[int]] = list(low_solutions)
        for m in high_solutions:
            if any(s <= m for s in low_solutions):
                continue
            kept.append(m | {var})
        cache[node] = kept
    return cache[root]
