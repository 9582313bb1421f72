"""Tests of the FT_C construction (Section V-C)."""

from dataclasses import replace

import pytest
from hypothesis import given

import repro.core.cutset_model as cutset_model
from repro.bdd.ft_bdd import bdd_cutsets
from repro.core.analyzer import AnalysisOptions, analyze, analyze_curve
from repro.core.classify import classification_report
from repro.core.cutset_model import TOP_GATE, CutsetModelMemo, build_cutset_model
from repro.core.quantify import QuantificationCache
from repro.core.sdft import SdFaultTreeBuilder
from repro.core.to_static import to_static
from repro.ctmc.builders import repairable, triggered_repairable
from repro.ctmc.triggered import TriggeredCtmc
from repro.errors import AnalysisError
from repro.ft.mocus import MocusOptions, mocus
from repro.ft.tree import GateType
from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr
from repro.models.enrich import dynamize, plan_dynamization
from repro.models.sbo import SboConfig, build_sbo
from repro.models.synthetic import build_synthetic, model_1
from repro.perf.fingerprint import model_signature

from tests.bdd.test_cutset_generation import MODEL_1, _example
from tests.strategies import sd_fault_trees


class TestStaticCutsets:
    def test_pure_static_cutset_has_no_model(self, cooling_sdft):
        model = build_cutset_model(cooling_sdft, frozenset({"a", "c"}))
        assert model.model is None
        assert model.static_factor == pytest.approx(9e-6)
        assert not model.is_dynamic

    def test_unknown_events_rejected(self, cooling_sdft):
        with pytest.raises(AnalysisError):
            build_cutset_model(cooling_sdft, frozenset({"ghost"}))


class TestStaticBranching:
    def test_trigger_within_cutset(self, cooling_sdft):
        """Cutset {b, d}: d's trigger (pump1) is failed by b; the model
        keeps both dynamic events with a trigger over b."""
        model = build_cutset_model(cooling_sdft, frozenset({"b", "d"}))
        sdft_c = model.model
        assert sdft_c is not None
        assert set(sdft_c.dynamic_events) == {"b", "d"}
        assert model.n_dynamic_in_cutset == 2
        assert model.n_added_dynamic == 0
        # The top gate requires both dynamic events simultaneously.
        top = sdft_c.gates[TOP_GATE]
        assert top.gate_type is GateType.AND
        assert set(top.children) == {"b", "d"}
        # d is triggered by a reconstructed gate over b.
        trigger_gate = sdft_c.trigger_of["d"]
        assert sdft_c.structure.events_under(trigger_gate) == {"b"}

    def test_trigger_satisfied_by_static_event(self, cooling_sdft):
        """Cutset {a, d}: a (static, assumed failed) already fails d's
        trigger, so d becomes always-on with the untriggered view."""
        model = build_cutset_model(cooling_sdft, frozenset({"a", "d"}))
        sdft_c = model.model
        assert sdft_c is not None
        assert model.always_on == {"d"}
        assert set(sdft_c.dynamic_events) == {"d"}
        assert not isinstance(sdft_c.chain_of("d"), TriggeredCtmc)
        assert sdft_c.trigger_of == {}
        assert model.static_factor == pytest.approx(3e-3)


class TestStaticJoins:
    def _joins_model(self):
        b = SdFaultTreeBuilder()
        b.dynamic_event("e", repairable(0.02, 0.5))
        b.dynamic_event("f", repairable(0.03, 0.5))
        b.dynamic_event("g", triggered_repairable(0.05, 0.2))
        b.static_event("s", 0.01)
        b.or_("trigger_sys", "e", "f")
        b.and_("top", "trigger_sys", "g", "s")
        b.trigger("trigger_sys", "g")
        return b.build("top")

    def test_sibling_dynamic_events_added(self):
        """Cutset {e, g, s}: static joins pulls f into the model even
        though it is not in the cutset (paper Example 11: f's failure
        and repair shape g's trigger timing)."""
        sdft = self._joins_model()
        model = build_cutset_model(sdft, frozenset({"e", "g", "s"}))
        sdft_c = model.model
        assert set(sdft_c.dynamic_events) == {"e", "f", "g"}
        assert model.n_dynamic_in_cutset == 2
        assert model.n_added_dynamic == 1
        # Top requires only the cutset's dynamic events.
        assert set(sdft_c.gates[TOP_GATE].children) == {"e", "g"}
        # The reconstructed trigger covers both e and f.
        trigger_gate = sdft_c.trigger_of["g"]
        assert sdft_c.structure.events_under(trigger_gate) == {"e", "f"}


class TestGeneralCase:
    def _general_model(self):
        b = SdFaultTreeBuilder()
        b.dynamic_event("p", repairable(0.02, 0.5))
        b.dynamic_event("q1", repairable(0.04, 0.5))
        b.dynamic_event("q2", repairable(0.03, 0.4))
        b.static_event("d", 0.15)
        b.dynamic_event("r", triggered_repairable(0.05, 0.2))
        b.or_("guard", "d", "q1", "q2")
        b.and_("trig_gate", "p", "guard")
        b.and_("aux", "trig_gate", "r")
        b.or_("top", "aux")
        b.trigger("trig_gate", "r")
        return b.build("top")

    def test_static_guards_added(self):
        """Cutset {p, q1, r}: the general case adds the static guard d
        (it can trigger r earlier) but not q2's... actually q2 is also a
        relevant dynamic event of the guard OR."""
        sdft = self._general_model()
        model = build_cutset_model(sdft, frozenset({"p", "q1", "r"}))
        sdft_c = model.model
        assert "d" in sdft_c.static_events
        assert "q2" in sdft_c.dynamic_events

    def test_statics_in_cutset_excluded_from_model(self):
        """Cutset {d, p, r}: d is assumed failed (multiplied outside),
        so the trigger reduces to p alone and q1/q2 are irrelevant."""
        sdft = self._general_model()
        model = build_cutset_model(sdft, frozenset({"d", "p", "r"}))
        sdft_c = model.model
        assert set(sdft_c.dynamic_events) == {"p", "r"}
        assert sdft_c.static_events == {}
        assert model.static_factor == pytest.approx(0.15)


class TestChainedTriggers:
    def _chained(self):
        b = SdFaultTreeBuilder()
        b.dynamic_event("a1", repairable(0.03, 0.3))
        b.dynamic_event("a2", repairable(0.02, 0.3))
        b.dynamic_event("b1", triggered_repairable(0.04, 0.3))
        b.dynamic_event("b2", triggered_repairable(0.05, 0.3))
        b.dynamic_event("c1", triggered_repairable(0.06, 0.3))
        b.or_("sysA", "a1", "a2")
        b.or_("sysB", "b1", "b2")
        b.and_("top", "sysA", "sysB", "c1")
        b.trigger("sysA", "b1", "b2")
        b.trigger("sysB", "c1")
        return b.build("top")

    def test_uniform_triggering_reuses_gates(self):
        """Cutset {a1, b1, c1}: modelling c1's trigger adds b2 (static
        joins); b2's trigger gate sysA is already modelled for b1 and is
        reused, so no general-case blow-up occurs."""
        sdft = self._chained()
        model = build_cutset_model(sdft, frozenset({"a1", "b1", "c1"}))
        sdft_c = model.model
        assert set(sdft_c.dynamic_events) == {"a1", "a2", "b1", "b2", "c1"}
        assert model.n_added_dynamic == 2
        # b1 and b2 share one reconstructed trigger gate.
        assert sdft_c.trigger_of["b1"] == sdft_c.trigger_of["b2"]

    def test_model_is_quantifiable(self):
        """The constructed FT_C must itself be a valid SD fault tree
        whose product chain builds without errors."""
        from repro.ctmc.product import build_product

        sdft = self._chained()
        model = build_cutset_model(sdft, frozenset({"a1", "b1", "c1"}))
        product = build_product(model.model)
        assert product.n_states > 1


class TestTriviallyZero:
    def test_untriggerable_cutset(self):
        """A cutset whose triggered event's gate cannot fail in the
        counted runs quantifies to zero."""
        b = SdFaultTreeBuilder()
        b.static_event("s", 0.01)
        b.static_event("u", 0.02)
        b.dynamic_event("t", triggered_repairable(0.05, 0.2))
        b.or_("src", "s")
        b.or_("top", "helper", "u")
        b.and_("helper", "t", "u")
        b.trigger("src", "t")
        sdft = b.build("top")
        # Force the degenerate case directly: cutset {t, u} without s.
        model = build_cutset_model(sdft, frozenset({"t", "u"}))
        assert model.trivially_zero
        assert model.model is None


# ----------------------------------------------------------------------
# The projection-keyed memo (CutsetModelMemo)
# ----------------------------------------------------------------------

HORIZON = 24.0


def _family(tree):
    found = bdd_cutsets(tree, MocusOptions(cutoff=1e-15))
    return [frozenset(names) for names in found.full_cutsets]


def assert_memo_matches_fresh(sdft, cutsets):
    """Every memo answer equals a fresh build in everything a record or
    a solve reads; returns the memo for its counters."""
    classes = classification_report(sdft).by_gate
    memo = CutsetModelMemo(sdft, classes)
    for cutset in cutsets:
        got = memo.build(cutset)
        fresh = build_cutset_model(sdft, cutset, classes)
        assert got.cutset == cutset
        assert (got.model is None) == (fresh.model is None)
        if fresh.model is not None:
            assert model_signature(got.model, HORIZON) == model_signature(
                fresh.model, HORIZON
            )
        assert got.always_on == fresh.always_on
        assert got.trivially_zero == fresh.trivially_zero
        assert got.classes_used == fresh.classes_used
        assert got.n_dynamic_in_cutset == fresh.n_dynamic_in_cutset
        assert got.n_dynamic_in_model == fresh.n_dynamic_in_model
        assert got.dependencies == fresh.dependencies
        assert got.static_factor.hex() == fresh.static_factor.hex()
    return memo


def _check_model(sdft, overrides=None):
    tree = to_static(sdft, HORIZON).tree
    if overrides:
        tree = tree.with_probabilities(overrides)
    return assert_memo_matches_fresh(sdft, _family(tree))


class TestModelMemo:
    @pytest.mark.parametrize("n_stages", range(len(TRIGGER_STAGES) + 1))
    def test_bwr_trigger_prefixes(self, n_stages):
        _check_model(
            build_bwr(
                BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES[:n_stages])
            )
        )

    @pytest.mark.parametrize("seed", [101, 43, 19])
    def test_erlang_inputs(self, seed):
        tree = build_synthetic(replace(MODEL_1, seed=seed).scaled(0.6))
        plan = plan_dynamization(mocus(tree).cutsets, 0.4, 0.1)
        sdft = dynamize(tree, plan, horizon=HORIZON, phases=2)
        overrides = {
            name: tree.events[name].probability for name in plan.dynamic_events
        }
        memo = _check_model(sdft, overrides)
        assert memo.reuses > 0

    @pytest.mark.parametrize(
        "build",
        [
            "quickstart",
            "event_tree_psa",
            "importance",
            "sbo-2",
            "sbo-8",
            "industrial",
        ],
    )
    def test_example_models(self, build):
        if build == "quickstart":
            sdft = _example("quickstart").build_cooling_system()
        elif build == "event_tree_psa":
            sdft = _example("event_tree_psa").build_plant_model()
        elif build == "importance":
            sdft = build_bwr(BwrConfig(dynamic=False, include_ccf=False))
        elif build.startswith("sbo-"):
            sdft = build_sbo(SboConfig(battery_hours=float(build[4:])))
        else:
            tree = model_1()
            plan = plan_dynamization(
                bdd_cutsets(tree).cutsets,
                dynamic_fraction=0.4,
                triggered_fraction=0.1,
            )
            sdft = dynamize(tree, plan, horizon=HORIZON)
        _check_model(sdft)

    @given(sd_fault_trees())
    def test_random_sd_trees(self, sdft):
        tree = to_static(sdft, HORIZON).tree
        cutsets = mocus(tree, MocusOptions(cutoff=0.0)).cutsets
        assert_memo_matches_fresh(sdft, list(cutsets))

    def test_unknown_events_still_rejected(self, cooling_sdft):
        memo = CutsetModelMemo(cooling_sdft)
        memo.build(frozenset({"b", "d"}))
        with pytest.raises(AnalysisError):
            memo.build(frozenset({"b", "d", "ghost"}))

    def test_one_cache_never_shares_templates_across_models(self):
        """Two models that differ in one trigger give the cutset {a, t}
        the same projection; one cache must still keep them apart."""
        def model(trigger):
            b = SdFaultTreeBuilder()
            b.static_event("s1", 0.01).static_event("s2", 0.02)
            b.dynamic_event("a", repairable(0.03, 0.3))
            b.dynamic_event("t", triggered_repairable(0.04, 0.3))
            b.or_("g1", "s1", "a").or_("g2", "s2", "a")
            b.or_("either", "g1", "g2")
            b.and_("top", "either", "t")
            b.trigger(trigger, "t")
            return b.build("top")

        first, second = model("g1"), model("g2")
        cutset = frozenset({"a", "t"})
        cache = QuantificationCache()
        got = [cache.model(sdft, cutset) for sdft in (first, second, first)]
        assert got[0].model is not got[1].model
        assert got[2].model is got[0].model
        for sdft, built in zip((first, second), got):
            fresh = build_cutset_model(sdft, cutset)
            assert model_signature(built.model, HORIZON) == model_signature(
                fresh.model, HORIZON
            )
        assert model_signature(got[0].model, HORIZON) != model_signature(
            got[1].model, HORIZON
        )
        assert (cache.model_builds, cache.model_reuses) == (2, 1)

    def test_bwr_builds_each_class_once(self):
        sdft = build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))
        result = analyze(sdft, AnalysisOptions(collect_metrics=True))
        counters = result.metrics["counters"]
        assert counters["quantify.model_builds"] == 295
        assert counters["quantify.model_reuses"] == 1778 - 295
        assert counters["quantify.dedup_misses"] == 35
        assert "FT_C builds 295 for 1778 dynamic cutsets, 35 solves" in (
            result.summary()
        )

    def test_curve_builds_once_and_matches_analyze(self, monkeypatch):
        sdft = build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))
        calls = []
        original = cutset_model.build_cutset_model

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        def dynamic_builds():
            return sum(1 for cutset in calls if cutset & set(sdft.dynamic_events))

        monkeypatch.setattr(cutset_model, "build_cutset_model", counting)
        analyze_curve(sdft, [HORIZON])
        single = dynamic_builds()
        calls.clear()
        curve = analyze_curve(sdft, [12.0, HORIZON])
        # The memo spans every horizon of the curve.
        assert dynamic_builds() == single == 295
        monkeypatch.undo()
        exact = analyze(sdft, AnalysisOptions(horizon=HORIZON))
        assert curve[HORIZON] == exact.failure_probability
        earlier = analyze(sdft, AnalysisOptions(horizon=12.0))
        assert curve[12.0] == pytest.approx(earlier.failure_probability, rel=1e-12)
