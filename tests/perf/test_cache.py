"""Persistent solve cache: lifecycle, invalidation, corruption tolerance.

The contract under test: a warm cache makes re-analysis near-free and
*bit-identical* to a cold run, a key mismatch (model content, horizon,
solver options) is always a miss, and no form of on-disk corruption —
garbage files, torn payloads, stale schemas — can ever fail or skew an
analysis: the worst a broken cache can do is run at cold speed.
"""

import dataclasses
import json
import os
import sqlite3
import threading

import pytest

from repro.core.analyzer import AnalysisOptions, analyze
from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import repairable, triggered_repairable
from repro.errors import NumericalError
from repro.perf.cache import (
    SCHEMA_VERSION,
    SolveCache,
    default_cache_dir,
    tree_digest,
)
from repro.robust import faults

SIGNATURE = ("model", "fingerprint-a", 24.0)


def make_cache(tmp_path, **kwargs):
    return SolveCache(str(tmp_path / "cache"), **kwargs)


def db_path(cache):
    return os.path.join(cache.cache_dir, "solve-cache.sqlite")


def masked_records(result):
    """Records with wall-clock noise removed (all else must match)."""
    return [
        dataclasses.replace(r, solve_seconds=0.0) for r in result.records
    ]


def cache_messages(result):
    return [
        e.message for e in result.health.events if e.stage == "cache"
    ]


def was_restored(result):
    return any("full-result hit" in m for m in cache_messages(result))


def build_cooling(rate_b=0.001):
    b = SdFaultTreeBuilder("cooling-sd")
    b.static_event("a", 3e-3).static_event("c", 3e-3)
    b.static_event("e", 3e-6)
    b.dynamic_event("b", repairable(rate_b, 0.05))
    b.dynamic_event("d", triggered_repairable(0.001, 0.05))
    b.or_("pump1", "a", "b").or_("pump2", "c", "d")
    b.and_("pumps", "pump1", "pump2")
    b.or_("cooling", "pumps", "e")
    b.trigger("pump1", "d")
    return b.build("cooling")


class TestSolveLayer:
    def test_roundtrip(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put_solve(SIGNATURE, 1e-12, 200_000, False, 0.25, 17)
        assert cache.get_solve(SIGNATURE, 1e-12, 200_000, False) == (0.25, 17)
        assert cache.solve_hits == 1
        assert cache.solve_misses == 0

    def test_misses_on_any_key_component_change(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put_solve(SIGNATURE, 1e-12, 200_000, False, 0.25, 17)
        assert cache.get_solve(("other",), 1e-12, 200_000, False) is None
        assert cache.get_solve(SIGNATURE, 1e-10, 200_000, False) is None
        assert cache.get_solve(SIGNATURE, 1e-12, 100, False) is None
        assert cache.get_solve(SIGNATURE, 1e-12, 200_000, True) is None
        assert cache.solve_misses == 4

    @pytest.mark.parametrize(
        "probability", [float("nan"), -0.5, 1.5, float("inf")]
    )
    def test_never_persists_implausible_values(self, tmp_path, probability):
        cache = make_cache(tmp_path)
        cache.put_solve(SIGNATURE, 1e-12, 200_000, False, probability, 17)
        assert cache.get_solve(SIGNATURE, 1e-12, 200_000, False) is None

    def test_refuses_writes_while_faults_armed(self, tmp_path):
        cache = make_cache(tmp_path)
        with faults.inject("transient_solve", NumericalError("armed")):
            cache.put_solve(SIGNATURE, 1e-12, 200_000, False, 0.25, 17)
        assert cache.get_solve(SIGNATURE, 1e-12, 200_000, False) is None

    def test_refuses_writes_while_value_faults_armed(self, tmp_path):
        cache = make_cache(tmp_path)
        with faults.inject_value("solve_value", 0.9, times=1):
            cache.put_solve(SIGNATURE, 1e-12, 200_000, False, 0.25, 17)
        assert cache.get_solve(SIGNATURE, 1e-12, 200_000, False) is None


class TestMocusAndRecordsLayers:
    def test_records_roundtrip(self, tmp_path):
        cache = make_cache(tmp_path)
        payload = {"records": [{"cutset": ["a"]}], "static_bound": 0.1}
        cache.put_records("fp", ("opts",), payload)
        found = cache.get_records("fp", ("opts",))
        assert found["records"] == payload["records"]
        assert found["static_bound"] == payload["static_bound"]
        assert cache.get_records("fp", ("other",)) is None


class TestCorruptionTolerance:
    def put_one(self, cache):
        cache.put_solve(SIGNATURE, 1e-12, 200_000, False, 0.25, 17)

    def corrupt_payloads(self, cache, payload):
        with sqlite3.connect(db_path(cache)) as connection:
            connection.execute("UPDATE entries SET payload = ?", (payload,))

    def test_torn_payload_is_a_miss_and_row_is_dropped(self, tmp_path):
        cache = make_cache(tmp_path)
        self.put_one(cache)
        cache.close()
        self.corrupt_payloads(cache, "{not json")
        cache = SolveCache(cache.cache_dir)
        assert cache.get_solve(SIGNATURE, 1e-12, 200_000, False) is None
        assert cache.errors == 1
        with sqlite3.connect(db_path(cache)) as connection:
            count = connection.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()[0]
        assert count == 0  # the bad row cannot keep costing parse failures

    def test_stale_schema_version_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        self.put_one(cache)
        cache.close()
        stale = json.dumps(
            {"probability": 0.25, "chain_states": 17, "schema": -1}
        )
        self.corrupt_payloads(cache, stale)
        cache = SolveCache(cache.cache_dir)
        assert cache.get_solve(SIGNATURE, 1e-12, 200_000, False) is None
        assert cache.errors == 1

    def test_out_of_range_stored_value_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        self.put_one(cache)
        cache.close()
        bad = json.dumps(
            {"probability": 2.5, "chain_states": 17, "schema": SCHEMA_VERSION}
        )
        self.corrupt_payloads(cache, bad)
        cache = SolveCache(cache.cache_dir)
        assert cache.get_solve(SIGNATURE, 1e-12, 200_000, False) is None
        assert cache.errors == 1

    def test_garbage_database_file_degrades_to_misses(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "solve-cache.sqlite").write_bytes(b"not a database")
        cache = SolveCache(str(cache_dir))
        self.put_one(cache)  # must not raise
        assert cache.get_solve(SIGNATURE, 1e-12, 200_000, False) is None
        assert cache.errors >= 1

    def test_unwritable_cache_dir_degrades_to_misses(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the directory should be")
        cache = SolveCache(str(blocker / "cache"))
        self.put_one(cache)  # must not raise
        assert cache.get_solve(SIGNATURE, 1e-12, 200_000, False) is None
        assert cache.errors >= 1


class TestEviction:
    def test_oldest_entries_beyond_the_bound_are_evicted(self, tmp_path):
        cache = make_cache(tmp_path, max_entries=2)
        for index in range(4):
            cache.put_solve(
                (f"model-{index}",), 1e-12, 200_000, False, 0.25, 17
            )
        assert cache.evictions == 2
        with sqlite3.connect(db_path(cache)) as connection:
            count = connection.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()[0]
        assert count == 2


class TestTreeDigest:
    def test_stable_and_content_sensitive(self, cooling_tree):
        assert tree_digest(cooling_tree) == tree_digest(cooling_tree)

    def test_probability_change_changes_digest(self):
        from repro.ft.builder import FaultTreeBuilder

        def tiny(p):
            b = FaultTreeBuilder("t")
            b.event("a", p).event("b", 1e-3)
            b.or_("top", "a", "b")
            return b.build("top")

        assert tree_digest(tiny(3e-3)) != tree_digest(tiny(4e-3))


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == str(tmp_path / "override")

    def test_falls_back_to_user_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().endswith(os.path.join(".cache", "repro"))


class TestAnalyzerLifecycle:
    """Cold -> warm bit-identity, invalidation, and the escape hatch."""

    def opts(self, tmp_path, **overrides):
        settings = dict(cache_dir=str(tmp_path / "run-cache"))
        settings.update(overrides)
        return AnalysisOptions(**settings)

    def test_cold_then_warm_is_bit_identical(self, cooling_sdft, tmp_path):
        cold = analyze(cooling_sdft, self.opts(tmp_path))
        warm = analyze(cooling_sdft, self.opts(tmp_path))
        assert not was_restored(cold)
        assert was_restored(warm)
        assert warm.failure_probability == cold.failure_probability
        assert warm.static_bound == cold.static_bound
        assert masked_records(warm) == masked_records(cold)
        assert warm.failure_probability_interval() == (
            cold.failure_probability_interval()
        )
        assert (warm.cache_hits, warm.cache_misses) == (
            cold.cache_hits,
            cold.cache_misses,
        )

    def test_warm_run_with_jobs_is_bit_identical(self, cooling_sdft, tmp_path):
        cold = analyze(cooling_sdft, self.opts(tmp_path, jobs=1))
        warm = analyze(cooling_sdft, self.opts(tmp_path, jobs=2))
        assert warm.failure_probability == cold.failure_probability
        assert masked_records(warm) == masked_records(cold)

    def test_rate_change_invalidates(self, tmp_path):
        baseline = analyze(build_cooling(0.001), self.opts(tmp_path))
        changed = analyze(build_cooling(0.002), self.opts(tmp_path))
        assert not was_restored(changed)
        assert changed.failure_probability != baseline.failure_probability

    def test_horizon_change_invalidates(self, cooling_sdft, tmp_path):
        baseline = analyze(cooling_sdft, self.opts(tmp_path))
        changed = analyze(cooling_sdft, self.opts(tmp_path, horizon=48.0))
        assert not was_restored(changed)
        assert changed.failure_probability != baseline.failure_probability

    def test_solver_option_change_invalidates(self, cooling_sdft, tmp_path):
        analyze(cooling_sdft, self.opts(tmp_path))
        lumped = analyze(cooling_sdft, self.opts(tmp_path, lump_chains=True))
        assert not was_restored(lumped)

    def test_verify_full_recomputes(self, cooling_sdft, tmp_path):
        analyze(cooling_sdft, self.opts(tmp_path))
        full = analyze(cooling_sdft, self.opts(tmp_path, verify="full"))
        assert not was_restored(full)

    def test_no_cache_dir_touches_no_disk(self, cooling_sdft, monkeypatch,
                                          tmp_path):
        # The library default is cache-off; nothing may appear under the
        # default location either (the conftest points it into tmp).
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        result = analyze(cooling_sdft, AnalysisOptions())
        assert result.records
        assert not os.path.exists(str(tmp_path / "default"))
        assert cache_messages(result) == []

    def test_cached_run_keeps_clean_health(self, cooling_sdft, tmp_path):
        analyze(cooling_sdft, self.opts(tmp_path))
        warm = analyze(cooling_sdft, self.opts(tmp_path))
        assert was_restored(warm)
        assert warm.health.is_clean

    def test_concurrent_writers_share_one_directory(self, cooling_sdft,
                                                    tmp_path):
        options = self.opts(tmp_path)
        results = [None] * 4
        errors = []

        def worker(slot):
            try:
                results[slot] = analyze(cooling_sdft, options)
            except Exception as error:  # pragma: no cover - the failure
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        probabilities = {r.failure_probability for r in results}
        assert len(probabilities) == 1
        warm = analyze(cooling_sdft, options)
        assert was_restored(warm)
        assert warm.failure_probability == probabilities.pop()
