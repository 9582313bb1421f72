"""Tests of the JSONL export, schema validator and trace report."""

import json

import pytest

from repro.obs.core import Observability
from repro.obs.export import (
    TRACE_SCHEMA,
    validate_trace_file,
    validate_trace_lines,
    write_trace,
)
from repro.obs.report import metric_highlights, render_trace_report


def _write_sample(path):
    obs = Observability.collecting()
    with obs.tracer.span("analyze", model="demo"):
        with obs.tracer.span("quantify") as span:
            span.set(records=3)
    obs.metrics.count("quantify.dedup_hits", 7)
    obs.metrics.observe("transient.series_terms", 12.0)
    return write_trace(
        path, obs.tracer.records(), obs.metrics.snapshot(), attrs={"jobs": "1"}
    )


class TestWriteTrace:
    def test_round_trip_is_schema_valid(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        n_lines = _write_sample(path)
        counts = validate_trace_file(path)
        assert counts == {"spans": 2, "counters": 1, "histograms": 1}
        assert n_lines == 1 + sum(counts.values())

    def test_header_carries_schema_and_attrs(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_sample(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["type"] == "meta"
        assert header["schema"] == TRACE_SCHEMA
        assert header["attrs"] == {"jobs": "1"}

    def test_empty_run_still_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_trace(path, [], None)
        assert validate_trace_file(path) == {
            "spans": 0, "counters": 0, "histograms": 0,
        }


class TestValidator:
    def _span(self, span_id="1", parent=None, **extra):
        line = {
            "type": "span", "name": "s", "t0": 0.0, "wall": 0.1, "cpu": 0.1,
            "span_id": span_id, "parent_id": parent, "depth": 0, "attrs": {},
        }
        line.update(extra)
        return line

    def _header(self):
        return {"type": "meta", "schema": TRACE_SCHEMA, "tool": "repro",
                "attrs": {}}

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="meta header"):
            validate_trace_lines([self._span()])
        with pytest.raises(ValueError, match="empty trace"):
            validate_trace_lines([])

    def test_wrong_schema_rejected(self):
        header = self._header()
        header["schema"] = "repro-trace/99"
        with pytest.raises(ValueError, match="unsupported schema"):
            validate_trace_lines([header])

    def test_missing_span_field_rejected(self):
        span = self._span()
        del span["wall"]
        with pytest.raises(ValueError, match="missing 'wall'"):
            validate_trace_lines([self._header(), span])

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            validate_trace_lines([self._header(), self._span(wall=-1.0)])

    def test_duplicate_span_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate span_id"):
            validate_trace_lines(
                [self._header(), self._span("1"), self._span("1")]
            )

    def test_dangling_parent_rejected(self):
        with pytest.raises(ValueError, match="names no span"):
            validate_trace_lines(
                [self._header(), self._span("2", parent="missing")]
            )

    def test_forward_parent_reference_allowed(self):
        """Completion order writes children before parents; the parent
        check must be file-global, not line-local."""
        counts = validate_trace_lines(
            [self._header(), self._span("2", parent="1"), self._span("1")]
        )
        assert counts["spans"] == 2

    def test_unknown_line_type_rejected(self):
        with pytest.raises(ValueError, match="unknown line type"):
            validate_trace_lines([self._header(), {"type": "mystery"}])

    def test_inconsistent_histogram_rejected(self):
        bad = {"type": "histogram", "name": "h", "count": 1, "total": 1.0,
               "min": 5.0, "max": 1.0}
        with pytest.raises(ValueError, match="inconsistent histogram"):
            validate_trace_lines([self._header(), bad])

    def test_invalid_json_line_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            validate_trace_file(path)


class TestReport:
    def test_render_contains_spans_and_metrics(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_sample(path)
        report = render_trace_report(path)
        assert "analyze" in report
        assert "quantify" in report
        assert "quantify.dedup_hits = 7" in report
        assert "transient.series_terms" in report
        assert TRACE_SCHEMA in report
        assert "jobs=1" in report

    def test_dedup_line_names_model_builds(self, tmp_path):
        from repro.core.analyzer import AnalysisOptions, analyze
        from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr

        path = tmp_path / "bwr.jsonl"
        sdft = build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))
        analyze(sdft, AnalysisOptions(trace_path=str(path)))
        report = render_trace_report(path)
        assert (
            "dedup: 1743 hits / 35 misses (98% shared); FT_C builds 295 for "
            "1778 dynamic cutsets, 35 solves"
        ) in report.splitlines()

    def test_share_is_relative_to_root_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_sample(path)
        report = render_trace_report(path)
        analyze_row = next(
            line for line in report.splitlines()
            if line.startswith("analyze")
        )
        assert "100.0%" in analyze_row


class TestMetricHighlights:
    def test_empty_snapshot_no_lines(self):
        assert metric_highlights(None) == []
        assert metric_highlights({"counters": {}, "histograms": {}}) == []

    def test_only_present_sections_rendered(self):
        snapshot = {
            "counters": {"quantify.dedup_hits": 9, "quantify.dedup_misses": 1},
            "histograms": {},
        }
        lines = metric_highlights(snapshot)
        assert len(lines) == 1
        assert "90% shared" in lines[0]

    def test_pool_and_ladder_lines(self):
        snapshot = {
            "counters": {
                "ladder.descents": 2,
                "ladder.attempts_failed": 3,
                "pool.worker_faults": 1,
            },
            "histograms": {
                "pool.queue_wait_seconds": {
                    "count": 4, "total": 0.4, "min": 0.05, "max": 0.2,
                },
            },
        }
        lines = "\n".join(metric_highlights(snapshot))
        assert "pool: 4 tasks" in lines
        assert "1 worker faults" in lines
        assert "ladder: 2 descents" in lines

    def test_verify_and_pool_recovery_lines(self):
        snapshot = {
            "counters": {
                "verify.checks": 1200,
                "verify.violations": 2,
                "pool.rebuilds": 1,
                "pool.retries": 1,
                "pool.quarantined": 1,
            },
            "histograms": {},
        }
        lines = "\n".join(metric_highlights(snapshot))
        assert "verify: 1200 invariant checks, 2 violations" in lines
        assert "pool recovery: 1 rebuilds" in lines
        assert "1 quarantined" in lines

    def test_clean_run_shows_no_recovery_line(self):
        snapshot = {
            "counters": {"verify.checks": 10, "verify.violations": 0},
            "histograms": {},
        }
        lines = "\n".join(metric_highlights(snapshot))
        assert "verify: 10 invariant checks, 0 violations" in lines
        assert "pool recovery" not in lines
