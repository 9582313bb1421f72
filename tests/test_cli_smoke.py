"""CLI smoke tests: full subcommand flows in a temp dir, exit codes and
artifacts checked — including the observability flags and the ``trace``
subcommand over a real traced analysis.
"""

import json

import pytest

from repro.cli import main
from repro.models.formats import save_model
from repro.obs.export import TRACE_SCHEMA, validate_trace_file


@pytest.fixture
def sd_model_file(cooling_sdft, tmp_path):
    path = tmp_path / "cooling.json"
    save_model(cooling_sdft, path)
    return str(path)


class TestAnalyzeSmoke:
    def test_plain_analyze(self, sd_model_file, capsys):
        assert main(["analyze", sd_model_file]) == 0
        out = capsys.readouterr().out
        assert "failure probability" in out
        assert "metrics:" not in out  # observability off by default

    def test_analyze_with_metrics(self, sd_model_file, capsys):
        assert main(["analyze", sd_model_file, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "cutsets: engine bdd" in out
        assert "mocus:" not in out  # the BDD generator ran, not MOCUS
        assert "dedup:" in out

    def test_analyze_with_metrics_mocus_fallback(self, sd_model_file, capsys):
        # A node budget too small for any BDD forces the MOCUS fallback.
        argv = ["analyze", sd_model_file, "--metrics", "--bdd-node-budget", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "cutsets: engine mocus" in out and "BDD budget trips" in out
        assert "mocus:" in out
        assert "dedup:" in out

    def test_analyze_with_trace_writes_valid_jsonl(
        self, sd_model_file, tmp_path, capsys
    ):
        trace = tmp_path / "run.jsonl"
        assert main(["analyze", sd_model_file, "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        counts = validate_trace_file(trace)
        assert counts["spans"] >= 4
        header = json.loads(trace.read_text().splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA
        assert header["attrs"]["model"] == "cooling-sd"
        assert header["attrs"]["jobs"] == "1"

    def test_traced_parallel_analyze(self, sd_model_file, tmp_path, capsys):
        trace = tmp_path / "run2.jsonl"
        assert main(
            ["analyze", sd_model_file, "--jobs", "2",
             "--trace", str(trace), "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "pool:" in out  # pool metrics rendered for parallel runs
        validate_trace_file(trace)

    def test_missing_model_is_an_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestDemoSmoke:
    def test_demo_save_then_analyze_then_trace(self, tmp_path, capsys):
        """The full documented flow: build, save, analyse with a trace,
        summarise the trace."""
        model = tmp_path / "bwr.json"
        trace = tmp_path / "bwr.jsonl"
        assert main(["demo-bwr", "--save", str(model)]) == 0
        assert model.exists()
        assert main(
            ["analyze", str(model), "--cutoff", "1e-10",
             "--trace", str(trace), "--metrics"]
        ) == 0
        counts = validate_trace_file(trace)
        assert counts["spans"] >= 4
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "analyze" in report
        assert "quantify" in report

    def test_demo_inline_analysis_with_metrics(self, capsys):
        assert main(["demo-bwr", "--cutoff", "1e-8", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "failure probability" in out
        assert "metrics:" in out


class TestLintSmoke:
    def test_clean_model_exits_zero(self, sd_model_file, capsys):
        assert main(["lint", sd_model_file]) == 0
        out = capsys.readouterr().out
        assert "no diagnostics" in out

    def test_json_format(self, sd_model_file, capsys):
        assert main(["lint", sd_model_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "cooling-sd"
        assert payload["counts"] == {"error": 0, "warning": 0, "info": 0}

    def test_bundled_bwr_demo_lints_clean(self, tmp_path, capsys):
        model = tmp_path / "bwr.json"
        assert main(["demo-bwr", "--save", str(model)]) == 0
        capsys.readouterr()
        assert main(["lint", str(model)]) == 0

    @pytest.fixture
    def warned_model_file(self, tmp_path):
        """A model with a warning (SD201: probability 0.5) but no error."""
        from repro.ft.builder import FaultTreeBuilder

        b = FaultTreeBuilder("warned")
        b.event("a", 0.5).event("b", 1e-3)
        b.or_("top", "a", "b")
        path = tmp_path / "warned.json"
        save_model(b.build("top"), path)
        return str(path)

    def test_fail_on_threshold_controls_exit_code(self, warned_model_file, capsys):
        assert main(["lint", warned_model_file]) == 0  # default: --fail-on error
        assert main(["lint", warned_model_file, "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "SD201" in out

    def test_error_model_exits_one(self, tmp_path, capsys):
        from repro.ft.builder import FaultTreeBuilder

        b = FaultTreeBuilder("vacuous")
        b.event("a", 0.0).event("b", 1e-3)
        b.and_("top", "a", "b")
        path = tmp_path / "vacuous.json"
        save_model(b.build("top"), path)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SD107" in out

    def test_disable_suppresses_codes(self, warned_model_file, capsys):
        assert main(
            ["lint", warned_model_file, "--fail-on", "warning",
             "--disable", "SD201"]
        ) == 0

    def test_severity_override_promotes_to_error(self, warned_model_file, capsys):
        assert main(
            ["lint", warned_model_file, "--severity", "SD201=error"]
        ) == 1
        assert "error" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "SD101" in out and "SD401" in out

    def test_usage_errors_exit_two(self, sd_model_file, capsys):
        assert main(["lint"]) == 2
        assert main(["lint", sd_model_file, "--severity", "SD201"]) == 2
        assert main(["lint", sd_model_file, "--severity", "SD201=fatal"]) == 2

    def test_analyze_lint_gate_rejects_error_model(self, tmp_path, capsys):
        from repro.ft.builder import FaultTreeBuilder

        b = FaultTreeBuilder("vacuous")
        b.event("a", 0.0).event("b", 1e-3)
        b.and_("top", "a", "b")
        path = tmp_path / "vacuous.json"
        save_model(b.build("top"), path)
        assert main(["analyze", str(path), "--lint"]) == 1
        err = capsys.readouterr().err
        assert "SD107" in err
        # Without the gate the same model analyzes (to zero).
        assert main(["analyze", str(path)]) == 0


class TestVerifySmoke:
    def test_analyze_with_verify_cheap(self, sd_model_file, capsys):
        assert main(["analyze", sd_model_file, "--verify", "cheap"]) == 0
        assert "failure probability" in capsys.readouterr().out

    def test_analyze_with_verify_full(self, sd_model_file, capsys):
        assert main(["analyze", sd_model_file, "--verify", "full"]) == 0
        assert "failure probability" in capsys.readouterr().out

    def test_verify_modes_agree_with_off(self, sd_model_file, capsys):
        outputs = []
        for mode in ("off", "cheap", "full"):
            assert main(["analyze", sd_model_file, "--verify", mode]) == 0
            summary = capsys.readouterr().out
            outputs.append(
                next(
                    line
                    for line in summary.splitlines()
                    if "failure probability" in line
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]


class TestChaosSmoke:
    def test_campaign_on_model_file(self, sd_model_file, tmp_path, capsys):
        report = tmp_path / "chaos.json"
        assert main(
            ["chaos", sd_model_file, "--runs", "5", "--seed", "7",
             "--report", str(report)]
        ) == 0
        out = capsys.readouterr().out
        assert "5 runs" in out
        assert "no silent corruption" in out
        payload = json.loads(report.read_text())
        assert payload["ok"] is True
        assert payload["seed"] == 7
        assert len(payload["outcomes"]) == 5

    def test_campaign_defaults_to_the_bwr_demo(self, capsys):
        assert main(["chaos", "--runs", "2", "--cutoff", "1e-8"]) == 0
        out = capsys.readouterr().out
        assert "bwr" in out

    def test_full_verify_campaign(self, sd_model_file, capsys):
        assert main(
            ["chaos", sd_model_file, "--runs", "3", "--verify", "full"]
        ) == 0
        assert "verify full" in capsys.readouterr().out


class TestServeSmoke:
    def test_stdio_round_trip(self, sd_model_file, tmp_path, monkeypatch, capsys):
        import io

        model = json.loads(open(sd_model_file).read())
        requests = [
            {"id": 1, "op": "ping"},
            {"id": 2, "op": "load", "model": model},
            {"id": 3, "op": "stats"},
            {"id": 4, "op": "shutdown"},
        ]
        stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["serve", "--no-cache", "--journal", str(tmp_path / "j")]) == 0
        responses = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        by_id = {r["id"]: r for r in responses}
        assert all(by_id[i]["ok"] for i in (1, 2, 3, 4))
        assert by_id[2]["session"]

    def test_service_chaos_catalog(self, sd_model_file, tmp_path, capsys):
        report = tmp_path / "service.json"
        assert (
            main(
                [
                    "chaos",
                    sd_model_file,
                    "--catalog",
                    "service",
                    "--report",
                    str(report),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "no silent corruption" in out
        payload = json.loads(report.read_text())
        assert payload["ok"] is True
        assert payload["runs"] == 4


class TestImportanceSmoke:
    def test_importance_table(self, sd_model_file, capsys):
        assert main(["importance", sd_model_file]) == 0
        out = capsys.readouterr().out
        assert "FV" in out and "RRW" in out


class TestTraceSubcommand:
    def test_renders_cost_table_and_metrics(self, sd_model_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["analyze", sd_model_file, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        report = capsys.readouterr().out
        assert TRACE_SCHEMA in report
        assert "span" in report and "share" in report
        for phase in ("analyze", "translate", "mocus", "quantify"):
            assert phase in report
        assert "cutsets: engine bdd" in report
        assert "cutsets.engine.bdd" in report

    def test_renders_mocus_fallback_metrics(self, sd_model_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        argv = ["analyze", sd_model_file, "--trace", str(trace)]
        assert main(argv + ["--bdd-node-budget", "2"]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "cutsets: engine mocus" in report
        assert "mocus.partials_expanded" in report

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err
