"""Differential tests: BDD cutset generation against the MOCUS search.

:func:`repro.bdd.ft_bdd.bdd_cutsets` replaces MOCUS as the analyzer's
cutset generator, so it must return the same truncated list (same
order) and the same pre-truncation family on every bundled model and on
random trees.  The fallback paths — a tripped node budget, a
cooperative budget — must still produce MOCUS's result.
"""

import importlib.util
import pathlib
import sys
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bdd.ft_bdd import bdd_cutsets
from repro.core.analyzer import AnalysisOptions, analyze, analyze_curve
from repro.core.to_static import to_static
from repro.errors import BddBudgetExceeded, CutoffError
from repro.ft.cutsets import cutset_probability
from repro.ft.mocus import MocusOptions, mocus
from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr
from repro.models.enrich import dynamize, plan_dynamization
from repro.models.sbo import build_sbo
from repro.models.synthetic import SyntheticConfig, build_synthetic, model_1

from tests.strategies import fault_trees

HORIZON = 24.0
EXAMPLES = pathlib.Path(__file__).parent.parent.parent / "examples"

#: The configuration of :func:`repro.models.synthetic.model_1`, whose
#: seed the erlang inputs vary.
MODEL_1 = SyntheticConfig(
    seed=101,
    n_initiators=4,
    n_frontline=9,
    n_support=4,
    components_per_train=6,
    sequences_per_initiator=3,
    systems_per_sequence=2,
    support_chain_depth=2,
)


def assert_same_as_mocus(tree, options=None):
    expected = mocus(tree, options)
    found = bdd_cutsets(tree, options)
    assert found.engine == "bdd"
    assert found.cutsets.cutsets == expected.cutsets.cutsets
    assert set(found.full_cutsets) == set(expected.full_cutsets)
    assert len(found.full_cutsets) == len(expected.full_cutsets)
    return found


def _example(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _erlang_tree(seed: int):
    """The static tree the dynamized model-1 erlang study generates from."""
    tree = build_synthetic(replace(MODEL_1, seed=seed).scaled(0.6))
    plan = plan_dynamization(mocus(tree).cutsets, 0.4, 0.1)
    sdft = dynamize(tree, plan, horizon=HORIZON, phases=2)
    overrides = {name: tree.events[name].probability for name in plan.dynamic_events}
    return to_static(sdft, HORIZON).tree.with_probabilities(overrides)


class TestBundledModels:
    @pytest.mark.parametrize("n_stages", range(len(TRIGGER_STAGES) + 1))
    def test_bwr_trigger_prefixes(self, n_stages):
        model = build_bwr(
            BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES[:n_stages])
        )
        assert_same_as_mocus(to_static(model, HORIZON).tree)

    def test_bwr_all_triggers_keeps_the_canonical_family(self):
        model = build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))
        found = assert_same_as_mocus(to_static(model, HORIZON).tree)
        assert len(found.cutsets) == 3981
        assert len(found.full_cutsets) == 3987

    @pytest.mark.parametrize("seed", [101, 43, 19])
    def test_erlang_inputs_with_overrides(self, seed):
        assert_same_as_mocus(_erlang_tree(seed))

    def test_static_bwr(self):
        assert_same_as_mocus(to_static(build_bwr(BwrConfig(dynamic=False)), HORIZON).tree)

    def test_sbo(self):
        assert_same_as_mocus(to_static(build_sbo(), HORIZON).tree)


class TestExampleModels:
    """Every model the scripts under ``examples/`` analyse."""

    def test_quickstart(self):
        sdft = _example("quickstart").build_cooling_system()
        assert_same_as_mocus(to_static(sdft, HORIZON).tree)

    def test_event_tree_psa(self):
        sdft = _example("event_tree_psa").build_plant_model()
        assert_same_as_mocus(to_static(sdft, HORIZON).tree)

    def test_importance_and_uncertainty(self):
        sdft = build_bwr(BwrConfig(dynamic=False, include_ccf=False))
        assert_same_as_mocus(to_static(sdft, HORIZON).tree)

    @pytest.mark.parametrize("battery_hours", [2.0, 8.0])
    def test_station_blackout(self, battery_hours):
        from repro.models.sbo import SboConfig

        sdft = build_sbo(SboConfig(battery_hours=battery_hours))
        assert_same_as_mocus(to_static(sdft, HORIZON).tree)

    def test_industrial_scale(self):
        tree = model_1()
        plan = plan_dynamization(
            bdd_cutsets(tree).cutsets, dynamic_fraction=0.4, triggered_fraction=0.1
        )
        sdft = dynamize(tree, plan, horizon=HORIZON)
        assert_same_as_mocus(to_static(sdft, HORIZON).tree)


class TestRandomTrees:
    @given(fault_trees(max_events=8, max_gates=7), st.sampled_from([0.0, 1e-6]))
    def test_matches_mocus(self, tree, cutoff):
        assert_same_as_mocus(tree, MocusOptions(cutoff=cutoff))

    @given(fault_trees(max_events=8, max_gates=7), st.data())
    def test_matches_mocus_with_a_cutset_on_the_boundary(self, tree, data):
        exact = mocus(tree, MocusOptions(cutoff=0.0)).cutsets
        probabilities = {n: e.probability for n, e in tree.events.items()}
        on_boundary = data.draw(st.sampled_from(exact.cutsets))
        cutoff = cutset_probability(on_boundary, probabilities)
        found = assert_same_as_mocus(tree, MocusOptions(cutoff=cutoff))
        if cutoff > 0.0:
            assert on_boundary not in found.cutsets.cutsets


class TestLimitsAndFaults:
    def test_budget_trip_raises(self, cooling_tree):
        with pytest.raises(BddBudgetExceeded):
            bdd_cutsets(cooling_tree, node_budget=3)

    def test_max_cutsets_caps_the_walk(self, cooling_tree):
        with pytest.raises(CutoffError):
            bdd_cutsets(cooling_tree, MocusOptions(cutoff=0.0, max_cutsets=4))

    def test_mocus_fault_stage_fires(self, cooling_tree):
        from repro.errors import InjectedFaultError
        from repro.robust import faults

        with faults.inject("mocus") as fault:
            with pytest.raises(InjectedFaultError):
                bdd_cutsets(cooling_tree)
        assert fault.trips == 1


class TestAnalyzerEngineSelection:
    def test_budget_trip_falls_back_to_mocus(self, cooling_sdft):
        default = analyze(cooling_sdft, AnalysisOptions())
        tripped = analyze(
            cooling_sdft, AnalysisOptions(bdd_node_budget=2, collect_metrics=True)
        )
        counters = tripped.metrics["counters"]
        assert counters["cutsets.engine.mocus"] == 1
        assert counters["bdd.budget_trips"] >= 1
        assert any(
            "falling back to MOCUS" in event.message
            for event in tripped.health.events
        )
        assert [(r.cutset, r.probability) for r in tripped.records] == [
            (r.cutset, r.probability) for r in default.records
        ]
        assert tripped.failure_probability == default.failure_probability

    def test_cooperative_budget_takes_the_mocus_path(self, cooling_sdft):
        result = analyze(
            cooling_sdft,
            AnalysisOptions(wall_seconds=3600.0, collect_metrics=True),
        )
        counters = result.metrics["counters"]
        assert counters["cutsets.engine.mocus"] == 1
        assert "cutsets.engine.bdd" not in counters
        assert counters["mocus.partials_expanded"] > 0
        default = analyze(cooling_sdft, AnalysisOptions())
        assert result.failure_probability == default.failure_probability

    def test_curve_matches_across_engines(self, cooling_sdft):
        horizons = [6.0, 24.0]
        default = analyze_curve(cooling_sdft, horizons)
        tripped = analyze_curve(
            cooling_sdft, horizons, AnalysisOptions(bdd_node_budget=2)
        )
        assert default == tripped
