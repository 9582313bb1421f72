"""Construction of the small SD fault tree ``FT_C`` for one minimal cutset.

This implements Section V-C of the paper — the step that makes the whole
method scale.  For a minimal cutset ``C`` the dynamic quantification

``p̃(C) = Pr_{FT_C}[Reach^{<=t}(F)] * prod_{static a in C} p(a)``

needs a model ``FT_C`` containing only:

1. a top AND gate over the *dynamic* events of ``C`` (they must all be
   failed simultaneously at some point before the horizon);
2. for each triggered event ``a`` among them, a reconstruction of its
   triggering gate's timing over a *relevant set* ``Rel_a`` of events,
   whose size depends on the gate's class (Section V-A):

   * static branching:  ``Rel_a = Dyn_a ∩ C`` (cutset events only),
   * static joins:      ``Rel_a = Dyn_a`` (all sibling dynamic events),
   * general case:      ``Rel_a = Dyn_a ∪ (Sta_a \\ C)`` (plus static
     guards);

   the triggering logic becomes an OR over AND gates, one per minimal
   subset ``A_i ⊆ Rel_a`` that fails the trigger gate given the static
   events of ``C`` (computed by :func:`repro.ft.mocus.constrained_mcs`);
3. trigger edges from those reconstructed gates, with newly pulled-in
   triggered events processed iteratively — reusing gates already
   modelled, otherwise falling back to the general case (Step 3 of the
   paper's construction).

Two degenerate outcomes short-circuit the chain analysis: a trigger gate
already failed by the static events of ``C`` makes its event *always
on* (its chain is replaced by the untriggered view), and a trigger gate
that can never fail makes the whole cutset's dynamic probability zero.

Building once per class
-----------------------
The construction reads ``C`` only through ``D_C = C ∩ Dyn`` (the top
gate, the first-round set, ``Dyn_a ∩ C``) and, per modelled trigger gate
``g``, through ``Sta_g ∩ C`` (the assumed-failed statics) and
``Sta_g \\ C`` (the guards of the general case); the static factor and
the model's display name are the only other readers.  With
``G = ⋃ Sta_g`` over *every* trigger gate of the model — the gates
Step 3 can reach are a subset — all of these are functions of the
projection ``π(C) = (C ∩ Dyn, C ∩ G)`` except the static factor and
the name, and neither enters the model's signature or any record.
:class:`CutsetModelMemo` therefore builds one template per projection
and stamps each further cutset of the class with its own cutset and its
own static factor (:func:`static_factor`, the one sorted-name product
every record's value uses), so the result is bit-identical to a fresh
build.  On the BWR with its trigger stages, 1,778 dynamic cutsets fall
into 295 projections (35 distinct signatures); a memo hit's ``model``
is the template's, so ``model.name`` names the class's first cutset.
The memo lives with the per-run
:class:`~repro.core.quantify.QuantificationCache`, is tied to one
:class:`~repro.core.sdft.SdFaultTree` and is never persisted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.classify import TriggerClass, classify_trigger_gate
from repro.core.sdft import DynamicBasicEvent, SdFaultTree
from repro.ctmc.triggered import TriggeredCtmc
from repro.errors import AnalysisError
from repro.ft.mocus import constrained_mcs
from repro.ft.tree import BasicEvent, Gate, GateType

__all__ = [
    "CutsetModel",
    "CutsetModelMemo",
    "build_cutset_model",
    "static_factor",
]

#: Name of the top AND gate of every ``FT_C``.
TOP_GATE = "FT_C::top"


@dataclass(frozen=True)
class CutsetModel:
    """The quantification model of one minimal cutset.

    ``model`` is ``None`` for purely static cutsets (probability is just
    ``static_factor``) and for infeasible ones (``trivially_zero``).
    The counters feed the experiment statistics of Section VI: how many
    dynamic events the cutset itself contributes and how many had to be
    added because its triggers lack static branching.
    """

    cutset: frozenset[str]
    model: SdFaultTree | None
    static_factor: float
    n_dynamic_in_cutset: int
    n_dynamic_in_model: int
    trivially_zero: bool = False
    always_on: frozenset[str] = frozenset()
    classes_used: tuple[TriggerClass, ...] = ()

    @property
    def n_added_dynamic(self) -> int:
        """Dynamic events pulled in beyond those of the cutset itself."""
        return self.n_dynamic_in_model - self.n_dynamic_in_cutset

    @property
    def dependencies(self) -> tuple[str, ...]:
        """Every basic event whose *content* this model's value reads.

        The cutset members (their probabilities enter the static factor)
        plus every event pulled into ``FT_C`` (chains and static
        guards).  Structure and trigger wiring are deliberately not
        encoded: the incremental engine only reuses records when the
        gate/trigger skeleton is unchanged, so under that precondition a
        record whose dependencies are untouched by an edit is guaranteed
        to re-quantify to the identical value.
        """
        names = set(self.cutset)
        if self.model is not None:
            names.update(self.model.static_events)
            names.update(self.model.dynamic_events)
        return tuple(sorted(names))

    @property
    def is_dynamic(self) -> bool:
        """Whether the cutset needs a Markov-chain quantification."""
        return self.n_dynamic_in_cutset > 0


def static_factor(sdft: SdFaultTree, cutset: frozenset[str]) -> float:
    """``prod_{static a in C} p(a)``, multiplied in sorted-name order.

    Records compare bit for bit across the memo, the what-if engine and
    fresh builds, so every static factor is this one product; names
    that are not static events of ``sdft`` are skipped.
    """
    static_events = sdft.static_events
    factor = 1.0
    for name in sorted(cutset):
        event = static_events.get(name)
        if event is not None:
            factor *= event.probability
    return factor


@dataclass
class _Workspace:
    """Mutable state of one construction run."""

    dynamic_chains: dict[str, object] = field(default_factory=dict)
    static_guards: dict[str, float] = field(default_factory=dict)
    gates: dict[str, Gate] = field(default_factory=dict)
    triggers: dict[str, list[str]] = field(default_factory=dict)
    gate_model_of: dict[str, str] = field(default_factory=dict)
    always_on: set[str] = field(default_factory=set)
    classes_used: list[TriggerClass] = field(default_factory=list)
    trivially_zero: bool = False


def build_cutset_model(
    sdft: SdFaultTree,
    cutset: frozenset[str],
    classes: dict[str, TriggerClass] | None = None,
) -> CutsetModel:
    """Build ``FT_C`` for ``cutset`` following the paper's three steps.

    ``classes`` optionally supplies precomputed trigger-gate classes
    (from :func:`repro.core.classify.classification_report`) so repeated
    calls over a cutset list do not re-derive them.
    """
    dynamic_in_cutset = sorted(n for n in cutset if sdft.is_dynamic(n))
    static_in_cutset = sorted(n for n in cutset if sdft.is_static(n))
    unknown = set(cutset) - set(dynamic_in_cutset) - set(static_in_cutset)
    if unknown:
        raise AnalysisError(f"cutset contains unknown events: {sorted(unknown)}")

    factor = static_factor(sdft, cutset)

    if not dynamic_in_cutset:
        return CutsetModel(cutset, None, factor, 0, 0)

    work = _Workspace()
    for name in dynamic_in_cutset:
        work.dynamic_chains[name] = sdft.chain_of(name)

    # Step 2, iterated: process triggered events, cutset events first so
    # their trigger gates are modelled with their true (cheap) class and
    # can be reused by events added later (footnote 3 of the paper).
    first_round = set(dynamic_in_cutset)
    pending: deque[str] = deque(
        n for n in dynamic_in_cutset if n in sdft.trigger_of
    )
    processed: set[str] = set()
    sta_c = frozenset(static_in_cutset)

    while pending and not work.trivially_zero:
        event_name = pending.popleft()
        if event_name in processed:
            continue
        processed.add(event_name)
        _model_trigger(
            sdft,
            event_name,
            event_name in first_round,
            sta_c,
            cutset,
            classes,
            work,
            pending,
        )

    if work.trivially_zero:
        return CutsetModel(
            cutset,
            None,
            factor,
            len(dynamic_in_cutset),
            len(work.dynamic_chains),
            trivially_zero=True,
            classes_used=tuple(work.classes_used),
        )

    # Step 1 (done last so all nodes exist): the top AND gate.
    work.gates[TOP_GATE] = Gate(TOP_GATE, GateType.AND, tuple(dynamic_in_cutset))

    dynamic_events = []
    for name, chain in sorted(work.dynamic_chains.items()):
        dynamic_events.append(DynamicBasicEvent(name, chain))
    static_events = [
        BasicEvent(name, probability)
        for name, probability in sorted(work.static_guards.items())
    ]
    model = SdFaultTree(
        TOP_GATE,
        static_events,
        dynamic_events,
        work.gates.values(),
        {gate: tuple(events) for gate, events in work.triggers.items()},
        name=f"FT_C[{'+'.join(sorted(cutset))}]",
    )
    return CutsetModel(
        cutset,
        model,
        factor,
        len(dynamic_in_cutset),
        len(work.dynamic_chains),
        always_on=frozenset(work.always_on),
        classes_used=tuple(work.classes_used),
    )


def _model_trigger(
    sdft: SdFaultTree,
    event_name: str,
    in_first_round: bool,
    sta_c: frozenset[str],
    cutset: frozenset[str],
    classes: dict[str, TriggerClass] | None,
    work: _Workspace,
    pending: deque[str],
) -> None:
    """Model the triggering gate of one event inside ``FT_C`` (Step 2)."""
    gate_name = sdft.trigger_of[event_name]

    # Reuse a trigger gate modelled for another event of the same gate.
    existing = work.gate_model_of.get(gate_name)
    if existing is not None:
        work.triggers.setdefault(existing, []).append(event_name)
        return

    if in_first_round:
        if classes is not None and gate_name in classes:
            trigger_class = classes[gate_name]
        else:
            trigger_class = classify_trigger_gate(sdft, gate_name)
    else:
        # Step 3: a gate first reached through an added event is modelled
        # with the general case, irrespective of its syntactic class.
        trigger_class = TriggerClass.GENERAL
    work.classes_used.append(trigger_class)

    dyn_under = sdft.dynamic_under(gate_name)
    if trigger_class is TriggerClass.STATIC_BRANCHING:
        relevant = dyn_under & cutset
    elif trigger_class in (
        TriggerClass.STATIC_JOINS,
        TriggerClass.STATIC_JOINS_UNIFORM,
    ):
        relevant = dyn_under
    else:
        relevant = dyn_under | (sdft.static_under(gate_name) - cutset)

    assumed = sta_c & sdft.static_under(gate_name)
    minimal_sets = constrained_mcs(
        sdft.structure, gate_name, frozenset(relevant), assumed
    )
    if minimal_sets is True:
        # The static events of C alone fail the trigger: the event is on
        # from time 0 in every counted run — drop the on/off structure.
        chain = work.dynamic_chains[event_name]
        assert isinstance(chain, TriggeredCtmc)
        work.dynamic_chains[event_name] = chain.untriggered_view()
        work.always_on.add(event_name)
        return
    if minimal_sets is False:
        # The trigger can never fail in the counted runs, so the event
        # can never be switched on, hence never failed: p̃(C) = 0.
        work.trivially_zero = True
        return

    # Build OR-over-ANDs with the minimal trigger sets as its cutsets.
    model_gate = f"FT_C::trig::{gate_name}"
    disjuncts: list[str] = []
    for i, subset in enumerate(sorted(minimal_sets, key=sorted)):
        members = tuple(sorted(subset))
        for member in members:
            _include_event(sdft, member, work, pending)
        if len(members) == 1:
            disjuncts.append(members[0])
        else:
            and_name = f"{model_gate}#and{i}"
            work.gates[and_name] = Gate(and_name, GateType.AND, members)
            disjuncts.append(and_name)
    work.gates[model_gate] = Gate(
        model_gate,
        GateType.OR,
        tuple(disjuncts),
        description=f"timing of trigger {gate_name}",
    )
    work.gate_model_of[gate_name] = model_gate
    work.triggers.setdefault(model_gate, []).append(event_name)


def _include_event(
    sdft: SdFaultTree, name: str, work: _Workspace, pending: deque[str]
) -> None:
    """Add an event referenced by a trigger model to the workspace."""
    if sdft.is_static(name):
        work.static_guards.setdefault(
            name, sdft.static_events[name].probability
        )
        return
    if name not in work.dynamic_chains:
        work.dynamic_chains[name] = sdft.chain_of(name)
        if name in sdft.trigger_of:
            pending.append(name)


class CutsetModelMemo:
    """:func:`build_cutset_model` keyed on the cutset's projection.

    Serves one ``sdft`` (and one ``classes`` mapping) for its whole
    life; see the module docstring for why ``π(C) = (C ∩ Dyn, C ∩ G)``
    determines everything but the cutset itself and its static factor.
    Purely static cutsets bypass the memo (their build is the factor
    alone).  ``builds`` and ``reuses`` count the memo's misses and hits
    over dynamic cutsets.
    """

    def __init__(
        self,
        sdft: SdFaultTree,
        classes: dict[str, TriggerClass] | None = None,
    ) -> None:
        self.sdft = sdft
        self.classes = classes
        self._dynamic = frozenset(sdft.dynamic_events)
        self._static = frozenset(sdft.static_events)
        guards: set[str] = set()
        for gate_name in sdft.triggers:
            guards |= sdft.static_under(gate_name)
        self._guards = frozenset(guards)
        self._templates: dict[tuple, CutsetModel] = {}
        self.builds = 0
        self.reuses = 0

    def build(self, cutset: frozenset[str]) -> CutsetModel:
        """The model :func:`build_cutset_model` would return for ``cutset``."""
        dynamic = cutset & self._dynamic
        if not dynamic:
            return build_cutset_model(self.sdft, cutset, self.classes)
        key = (dynamic, cutset & self._guards)
        template = self._templates.get(key)
        if template is None:
            template = build_cutset_model(self.sdft, cutset, self.classes)
            self._templates[key] = template
            self.builds += 1
            return template
        if not cutset - dynamic <= self._static:
            # Unknown event: let the builder raise its usual error.
            return build_cutset_model(self.sdft, cutset, self.classes)
        self.reuses += 1
        return CutsetModel(
            cutset,
            template.model,
            static_factor(self.sdft, cutset),
            template.n_dynamic_in_cutset,
            template.n_dynamic_in_model,
            template.trivially_zero,
            template.always_on,
            template.classes_used,
        )
