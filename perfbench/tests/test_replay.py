"""The traced replay reproduces ``analyze()`` bit for bit."""

import time
from dataclasses import replace

from benchmarks.bench_parallel_quantify import build_cases
from replay import Spans, replay, same_records
from workloads import MODEL_1, MODEL_1_SCALE, whatif_cycles

from repro.core.analyzer import AnalysisOptions, analyze
from repro.models.synthetic import build_synthetic, model_1
from repro.service.edits import apply_edits


def _cooling():
    [(name, model, _)] = build_cases(1.0, tiny=True)
    assert name == "cooling"
    return model


def test_replay_is_bit_identical_to_analyze_on_the_cooling_model():
    model = _cooling()
    options = AnalysisOptions()
    analyzed = analyze(model, options)
    replayed = replay(model, options)
    assert same_records(replayed.records, analyzed.records)
    assert replayed.failure_probability == analyzed.failure_probability
    assert replayed.counts["cutset_model.builds"] == len(analyzed.records)
    assert replayed.counts["quantify.dedup_misses"] == analyzed.cache_misses
    assert replayed.counts["quantify.dedup_hits"] == analyzed.cache_hits
    assert replayed.counts["transient.solves"] == analyzed.cache_misses


def test_replay_counts_repeat_exactly():
    model = _cooling()
    first, second = (replay(model, AnalysisOptions()) for _ in range(2))
    assert first.counts == second.counts


def test_same_records_ignores_only_solve_seconds():
    records = analyze(_cooling(), AnalysisOptions()).records
    slower = tuple(replace(r, solve_seconds=r.solve_seconds + 1.0) for r in records)
    assert same_records(slower, records)
    doubled = replace(records[0], probability=records[0].probability * 2)
    nudged = (doubled,) + records[1:]
    assert not same_records(nudged, records)
    assert not same_records(records[1:], records)


def test_self_time_excludes_child_spans():
    spans = Spans()
    with spans.span("parent"):
        time.sleep(0.01)
        with spans.span("child"):
            time.sleep(0.02)
    assert 0.01 <= spans.self_s["parent"] < 0.02
    assert spans.self_s["child"] >= 0.02
    assert spans.calls == {"parent": 1, "child": 1}
    assert sum(spans.self_s.values()) >= 0.03


def test_model_1_config_matches_the_library():
    ours = build_synthetic(MODEL_1.scaled(MODEL_1_SCALE))
    library = model_1(MODEL_1_SCALE)
    assert ours.events == library.events
    assert ours.gates == library.gates


def test_whatif_reverts_restore_the_model_exactly():
    model = _cooling()
    for first, second, revert in whatif_cycles(model, seed=7, cycles=1):
        edited = apply_edits(model, [first, second, *revert])
        assert edited.static_events == model.static_events
        for name, event in model.dynamic_events.items():
            assert edited.dynamic_events[name].chain.rates == event.chain.rates
    assert whatif_cycles(model, 7, 1) == whatif_cycles(model, 7, 1)
