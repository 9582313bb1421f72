"""Structural transformations of static fault trees.

Three transformations used throughout the package:

* :func:`expand_atleast` rewrites every k-of-n voting gate into the
  equivalent OR-of-ANDs structure, producing a tree over AND/OR only —
  the paper's minimal gate set.
* :func:`restrict` partially evaluates a tree under a fixed assignment
  of some basic events (used by the cutset-model construction of
  Section V-C, where static events from the cutset are assumed failed
  and events outside the relevant set are assumed functional).
* :func:`prune` removes nodes unreachable from the top gate.

All transformations return new trees; inputs are never mutated.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from repro.errors import UnknownNodeError
from repro.ft.tree import BasicEvent, FaultTree, Gate, GateType

__all__ = ["expand_atleast", "restrict", "prune", "simplify", "Restriction"]


def expand_atleast(tree: FaultTree) -> FaultTree:
    """Rewrite ATLEAST gates into OR-of-AND structures.

    A gate ``atleast(k; c1..cn)`` becomes an OR over one AND gate per
    k-subset of its children.  The expansion is exponential in ``n - k``
    for large voting gates, which is why most algorithms here support
    ATLEAST natively; this function exists for consumers that only speak
    AND/OR (and as an oracle in tests).
    """
    gates: dict[str, Gate] = {}
    counter = itertools.count()
    for gate in tree.gates.values():
        if gate.gate_type is not GateType.ATLEAST:
            gates[gate.name] = gate
            continue
        assert gate.k is not None
        if gate.k == len(gate.children):
            gates[gate.name] = Gate(gate.name, GateType.AND, gate.children)
            continue
        if gate.k == 1:
            gates[gate.name] = Gate(gate.name, GateType.OR, gate.children)
            continue
        combo_names: list[str] = []
        for combo in itertools.combinations(gate.children, gate.k):
            combo_name = f"{gate.name}#atleast{next(counter)}"
            gates[combo_name] = Gate(combo_name, GateType.AND, combo)
            combo_names.append(combo_name)
        gates[gate.name] = Gate(gate.name, GateType.OR, tuple(combo_names))
    return FaultTree(tree.top, tree.events.values(), gates.values(), name=tree.name)


class Restriction:
    """Result of partially evaluating a tree under an assignment.

    Either the restricted root reduces to a constant (``constant`` holds
    ``True``/``False`` and ``tree`` is ``None``) or a residual tree over
    the unassigned events remains (``tree`` holds it, ``constant`` is
    ``None``).
    """

    def __init__(self, tree: FaultTree | None, constant: bool | None) -> None:
        assert (tree is None) != (constant is None)
        self.tree = tree
        self.constant = constant

    @property
    def is_constant(self) -> bool:
        """Whether the restriction collapsed to a constant truth value."""
        return self.constant is not None

    def __repr__(self) -> str:
        if self.is_constant:
            return f"Restriction(constant={self.constant})"
        return f"Restriction(tree={self.tree!r})"


def restrict(
    tree: FaultTree, root: str, assignment: Mapping[str, bool]
) -> Restriction:
    """Partially evaluate the subtree at ``root`` under ``assignment``.

    ``assignment`` maps basic-event names to fixed truth values (failed /
    functional).  Fixed events disappear from the result; gates whose
    value is forced collapse.  Gates that become single-child are kept as
    one-input gates so node names remain stable for callers that refer to
    them.

    The residual tree contains only nodes reachable from ``root``, so
    only the gates under ``root`` are evaluated.
    """
    for name in assignment:
        if not tree.is_event(name):
            raise UnknownNodeError(f"assignment contains non-event {name!r}")
    if root not in tree.gates and root not in tree.events:
        raise UnknownNodeError(f"unknown node {root!r}")

    # value[name] is True/False when forced, None when still symbolic.
    value: dict[str, bool | None] = {}
    for name in tree.events_under(root):
        value[name] = assignment.get(name)
    residual_children: dict[str, tuple[str, ...]] = {}
    under = tree.gates_under(root)
    for gate in tree.gates_bottom_up():
        if gate.name not in under:
            continue
        free = [c for c in gate.children if value[c] is None]
        n_true = sum(1 for c in gate.children if value[c] is True)
        if gate.gate_type is GateType.AND:
            if n_true + len(free) < len(gate.children):  # some child is False
                value[gate.name] = False
            elif not free:
                value[gate.name] = True
            else:
                value[gate.name] = None
                residual_children[gate.name] = tuple(free)
        elif gate.gate_type is GateType.OR:
            if n_true > 0:
                value[gate.name] = True
            elif not free:
                value[gate.name] = False
            else:
                value[gate.name] = None
                residual_children[gate.name] = tuple(free)
        else:  # ATLEAST
            assert gate.k is not None
            needed = gate.k - n_true
            if needed <= 0:
                value[gate.name] = True
            elif needed > len(free):
                value[gate.name] = False
            else:
                value[gate.name] = None
                residual_children[gate.name] = tuple(free)

    root_value = value.get(root)
    if root_value is not None:
        return Restriction(None, root_value)
    if tree.is_event(root):
        # A bare unassigned event as root: wrap in a trivial OR gate so the
        # result is a well-formed tree.
        wrapper = Gate(f"{root}#root", GateType.OR, (root,))
        return Restriction(
            FaultTree(wrapper.name, [tree.events[root]], [wrapper], name=tree.name),
            None,
        )

    # Collect the residual subtree below root, skipping forced children.
    gates: dict[str, Gate] = {}
    events: dict[str, BasicEvent] = {}
    stack = [root]
    visited: set[str] = set()
    while stack:
        name = stack.pop()
        if name in visited:
            continue
        visited.add(name)
        if tree.is_event(name):
            events[name] = tree.events[name]
            continue
        original = tree.gates[name]
        free = residual_children[name]
        if original.gate_type is GateType.ATLEAST:
            assert original.k is not None
            n_true = sum(1 for c in original.children if value[c] is True)
            needed = original.k - n_true
            if needed == len(free):
                gates[name] = Gate(name, GateType.AND, free)
            elif needed == 1:
                gates[name] = Gate(name, GateType.OR, free)
            else:
                gates[name] = Gate(name, GateType.ATLEAST, free, k=needed)
        else:
            gates[name] = Gate(name, original.gate_type, free)
        stack.extend(free)
    return Restriction(
        FaultTree(root, events.values(), gates.values(), name=tree.name), None
    )


def prune(tree: FaultTree) -> FaultTree:
    """Drop all nodes not reachable from the top gate."""
    reachable = tree.reachable_from_top()
    return FaultTree(
        tree.top,
        [e for n, e in tree.events.items() if n in reachable],
        [g for n, g in tree.gates.items() if n in reachable],
        name=tree.name,
    )


def simplify(tree: FaultTree) -> FaultTree:
    """Structural simplification preserving the boolean function.

    Three rewrites applied bottom-up until none fires, then a prune:

    * **pass-through collapse** — a single-input AND/OR gate is replaced
      by its child everywhere (the top gate is kept as a one-input gate
      if needed, so the result is still a fault tree);
    * **same-type flattening** — an AND (OR) child of an AND (OR) gate
      that is referenced nowhere else is inlined into its parent;
    * **duplicate-child elimination** happens implicitly through the
      set-based child merge during flattening.

    Deep layered models (real PSA exports routinely wrap everything in
    transfer gates) shrink substantially; MOCUS and BDD compilation both
    benefit.  Semantic equivalence is property-tested against scenario
    enumeration.
    """
    gates: dict[str, Gate] = dict(tree.gates)
    changed = True
    while changed:
        changed = False
        # Resolution map for pass-through gates discovered this round.
        resolve: dict[str, str] = {}
        for name, gate in gates.items():
            if (
                len(gate.children) == 1
                and gate.gate_type is not GateType.ATLEAST
                and name != tree.top
            ):
                resolve[name] = gate.children[0]
        if resolve:

            def target(name: str) -> str:
                while name in resolve:
                    name = resolve[name]
                return name

            # A voting gate whose children would collide after
            # resolution must keep its original references (collapsing
            # two children onto one node changes the vote count), so
            # the pass-through gates on those paths survive.
            keep: set[str] = set()
            for gate in gates.values():
                if gate.gate_type is not GateType.ATLEAST:
                    continue
                resolved = [target(c) for c in gate.children]
                if len(set(resolved)) != len(resolved):
                    for child in gate.children:
                        node = child
                        while node in resolve:
                            keep.add(node)
                            node = resolve[node]
            for name in keep:
                del resolve[name]
            if not resolve:
                changed = False
            else:
                changed = True
                blocked_atleast = {
                    gate.name
                    for gate in gates.values()
                    if gate.gate_type is GateType.ATLEAST
                    and any(c in keep for c in gate.children)
                }
                rebuilt: dict[str, Gate] = {}
                for name, gate in gates.items():
                    if name in resolve:
                        continue
                    if name in blocked_atleast:
                        rebuilt[name] = gate
                        continue
                    rebuilt[name] = Gate(
                        gate.name,
                        gate.gate_type,
                        tuple(dict.fromkeys(target(c) for c in gate.children)),
                        gate.k,
                        gate.description,
                    )
                gates = rebuilt
                continue

        # Count references for the single-parent flattening condition.
        reference_counts: dict[str, int] = {}
        for gate in gates.values():
            for child in gate.children:
                reference_counts[child] = reference_counts.get(child, 0) + 1
        for name, gate in list(gates.items()):
            if gate.gate_type is GateType.ATLEAST:
                continue
            inlineable = [
                c
                for c in gate.children
                if c in gates
                and gates[c].gate_type is gate.gate_type
                and gates[c].gate_type is not GateType.ATLEAST
                and reference_counts.get(c, 0) == 1
                and c != tree.top
            ]
            if not inlineable:
                continue
            merged: list[str] = []
            for child in gate.children:
                if child in inlineable:
                    merged.extend(gates[child].children)
                else:
                    merged.append(child)
            gates[name] = Gate(
                name,
                gate.gate_type,
                tuple(dict.fromkeys(merged)),
                gate.k,
                gate.description,
            )
            for child in inlineable:
                del gates[child]
            changed = True
            break
    simplified = FaultTree(
        tree.top, tree.events.values(), gates.values(), name=tree.name
    )
    return prune(simplified)
