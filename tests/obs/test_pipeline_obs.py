"""End-to-end observability contract of the analysis pipeline.

Three guarantees:

* tracing never changes results — a traced run is bit-identical to an
  untraced one, serial or parallel;
* the written trace is schema-valid and covers every pipeline phase
  (including pool-task spans shipped back from worker processes);
* the analysis-derived metrics (``mocus.*``, ``transient.*``,
  ``quantify.dedup_*``, ``quantify.model_*``) are identical across
  ``jobs`` settings — only
  the execution metrics (``pool.*``) depend on how the run executed.
"""

import dataclasses

import pytest

from repro.core.analyzer import AnalysisOptions, analyze
from repro.obs.export import validate_trace_file
from repro.robust.budget import Budget

#: The metric families derived from the analysis itself, not from how it
#: was executed; these must not depend on ``jobs``.
DETERMINISTIC_PREFIXES = ("cutsets.", "mocus.", "transient.", "quantify.", "ladder.")


def masked_records(result):
    return [dataclasses.replace(r, solve_seconds=0.0) for r in result.records]


def deterministic_counters(snapshot):
    return {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith(DETERMINISTIC_PREFIXES)
    }


def deterministic_histograms(snapshot):
    return {
        name: value
        for name, value in snapshot["histograms"].items()
        if name.startswith(DETERMINISTIC_PREFIXES)
    }


class TestTracingIsInert:
    def test_traced_run_matches_untraced(self, cooling_sdft, tmp_path):
        plain = analyze(cooling_sdft, AnalysisOptions())
        traced = analyze(
            cooling_sdft,
            AnalysisOptions(
                trace_path=str(tmp_path / "trace.jsonl"), collect_metrics=True
            ),
        )
        assert traced.failure_probability == plain.failure_probability
        assert traced.static_bound == plain.static_bound
        assert masked_records(traced) == masked_records(plain)
        assert (traced.cache_hits, traced.cache_misses) == (
            plain.cache_hits, plain.cache_misses,
        )
        assert plain.metrics is None
        assert traced.metrics is not None

    def test_untraced_result_has_no_metrics_overhead_artifacts(self, cooling_sdft):
        result = analyze(cooling_sdft, AnalysisOptions())
        assert result.metrics is None
        assert "metrics:" not in result.summary()

    def test_metrics_only_run_skips_trace_file(self, cooling_sdft, tmp_path):
        result = analyze(cooling_sdft, AnalysisOptions(collect_metrics=True))
        assert result.metrics is not None
        assert "metrics:" in result.summary()
        assert list(tmp_path.iterdir()) == []


class TestTraceFile:
    def test_schema_valid_and_covers_every_phase(self, cooling_sdft, tmp_path):
        path = tmp_path / "trace.jsonl"
        analyze(cooling_sdft, AnalysisOptions(trace_path=str(path)))
        counts = validate_trace_file(path)
        assert counts["spans"] >= 4
        assert counts["counters"] > 0

        import json

        names = set()
        for raw in path.read_text().splitlines():
            line = json.loads(raw)
            if line["type"] == "span":
                names.add(line["name"])
        assert {"analyze", "translate", "mocus", "quantify"} <= names
        assert "quantify.solve" in names  # dynamic cutsets were solved

    def test_parallel_trace_contains_worker_task_spans(
        self, cooling_sdft, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        analyze(cooling_sdft, AnalysisOptions(jobs=2, trace_path=str(path)))
        validate_trace_file(path)

        import json

        task_spans = [
            json.loads(raw)
            for raw in path.read_text().splitlines()
            if '"pool.task"' in raw
        ]
        assert task_spans
        for span in task_spans:
            assert span["span_id"].startswith("t")
            assert span["parent_id"] is not None
        # Queue-wait metrics landed with the spans.
        result = analyze(
            cooling_sdft, AnalysisOptions(jobs=2, collect_metrics=True)
        )
        assert result.metrics["counters"]["pool.tasks"] > 0
        assert "pool.queue_wait_seconds" in result.metrics["histograms"]

    def test_health_notes_the_trace(self, cooling_sdft, tmp_path):
        path = tmp_path / "trace.jsonl"
        result = analyze(cooling_sdft, AnalysisOptions(trace_path=str(path)))
        assert any(
            event.stage == "obs" for event in result.health.events
        )


class TestCrossJobsDeterminism:
    def test_analysis_metrics_identical_jobs1_vs_jobs2(self, cooling_sdft):
        serial = analyze(
            cooling_sdft, AnalysisOptions(jobs=1, collect_metrics=True)
        )
        parallel = analyze(
            cooling_sdft, AnalysisOptions(jobs=2, collect_metrics=True)
        )
        assert parallel.failure_probability == serial.failure_probability
        assert masked_records(parallel) == masked_records(serial)
        assert deterministic_counters(parallel.metrics) == (
            deterministic_counters(serial.metrics)
        )
        assert deterministic_histograms(parallel.metrics) == (
            deterministic_histograms(serial.metrics)
        )
        # The execution metrics differ by construction.
        assert "pool.tasks" in parallel.metrics["counters"]
        assert "pool.tasks" not in serial.metrics["counters"]

    def test_model_memo_counters_identical_across_jobs_and_tracing(
        self, tmp_path
    ):
        from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr

        sdft = build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))
        seen = set()
        for jobs in (1, 2):
            for traced in (False, True):
                trace = str(tmp_path / f"t{jobs}.jsonl") if traced else None
                result = analyze(
                    sdft,
                    AnalysisOptions(
                        jobs=jobs, collect_metrics=True, trace_path=trace
                    ),
                )
                counters = result.metrics["counters"]
                seen.add(
                    (
                        counters["quantify.model_builds"],
                        counters["quantify.model_reuses"],
                        counters["quantify.dedup_misses"],
                    )
                )
        assert seen == {(295, 1778 - 295, 35)}

    def test_dedup_counters_match_cache_totals(self, cooling_sdft):
        result = analyze(
            cooling_sdft, AnalysisOptions(collect_metrics=True)
        )
        counters = result.metrics["counters"]
        assert counters["quantify.dedup_hits"] == result.cache_hits
        assert counters["quantify.dedup_misses"] == result.cache_misses

    def test_series_terms_count_matches_unique_solves(self, cooling_sdft):
        """One series-length observation per actual chain solve — cache
        hits and static cutsets observe nothing."""
        result = analyze(
            cooling_sdft, AnalysisOptions(collect_metrics=True)
        )
        terms = result.metrics["histograms"]["transient.series_terms"]
        assert terms["count"] == result.cache_misses


class TestBudgetAndMocusMetrics:
    def test_budget_charges_are_counted(self, cooling_sdft):
        result = analyze(
            cooling_sdft,
            AnalysisOptions(collect_metrics=True, wall_seconds=3600.0),
        )
        counters = result.metrics["counters"]
        assert counters.get("budget.states_charged", 0) > 0

    def test_budget_counts_match_budget_attributes(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        budget = Budget(max_total_states=100, metrics=metrics)
        budget.charge_states(40, "quantify")
        budget.charge_cutset("mocus")
        assert metrics.counter("budget.states_charged") == budget.states_charged
        assert metrics.counter("budget.cutsets_charged") == budget.cutsets_charged

    def test_mocus_counters_present_and_consistent(self, cooling_sdft):
        # A node budget too small for any BDD forces the MOCUS fallback.
        result = analyze(
            cooling_sdft, AnalysisOptions(collect_metrics=True, bdd_node_budget=2)
        )
        counters = result.metrics["counters"]
        assert counters["cutsets.engine.mocus"] == 1
        assert counters["bdd.budget_trips"] >= 1
        assert counters["mocus.partials_expanded"] > 0
        assert counters["mocus.cutsets_minimal"] == result.n_cutsets

    def test_default_run_generates_cutsets_from_the_bdd(self, cooling_sdft):
        result = analyze(cooling_sdft, AnalysisOptions(collect_metrics=True))
        counters = result.metrics["counters"]
        histograms = result.metrics["histograms"]
        assert counters["cutsets.engine.bdd"] == 1
        assert "cutsets.engine.mocus" not in counters
        assert not any(name.startswith("mocus.") for name in counters)
        assert histograms["cutsets.bdd_nodes"]["max"] > 0
        assert result.health.is_clean

    def test_ladder_rung_counter_on_clean_isolated_run(self, cooling_sdft):
        result = analyze(
            cooling_sdft,
            AnalysisOptions(collect_metrics=True, fault_isolation=True),
        )
        counters = result.metrics["counters"]
        # Every cutset went through the ladder's first rung successfully.
        assert counters.get("ladder.rung.exact", 0) == result.n_cutsets
        assert "ladder.descents" not in counters
