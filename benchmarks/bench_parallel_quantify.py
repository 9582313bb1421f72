"""P1 — parallel cutset quantification: dedup, farm and cache speedup.

Measures the full :func:`repro.core.analyzer.analyze` pipeline per
stage (translate / MOCUS / quantify / other) across worker counts and
across persistent-cache temperatures, and records the signature-dedup
statistics that make the solver farm worthwhile.  Run as a script::

    python benchmarks/bench_parallel_quantify.py --output BENCH_quantify.json

Each case runs three phases against one ephemeral cache directory:

1. **cold** — ``jobs=1`` with an empty cache: the honest baseline, and
   the run that populates the solve/records layers;
2. **warm-solve** — the remaining ``--jobs`` values with the records
   layer scrubbed between runs, so translate/cutsets/quantify all
   execute but every unique-model solve is served from the persistent
   solve layer.  This is the speedup a re-analysis with *changed run
   options* sees;
3. **warm-full** — an identical rerun against the intact cache: the
   records layer restores the entire result, the end-to-end speedup a
   byte-identical re-analysis sees.

The payload records honest numbers for the machine it ran on —
``cpu_count`` is part of the output, so a single-core runner showing no
*parallel* speedup is a property of the runner, not of the code; the
cache speedups are machine-independent.  The script also *asserts* the
determinism contract: every jobs setting and every cache temperature
must reproduce the cold records bit for bit (wall-clock fields
excluded).

``--tiny`` restricts the sweep to the small cooling model (seconds, for
CI smoke jobs); the default sweep runs the fictive BWR study and a
dynamized synthetic PSA model.  ``--min-warm-speedup X`` turns the
warm-full end-to-end speedup into a gate: exit non-zero if any
non-trivial case rewarms slower than ``X``x (the CI bench-smoke floor).
``validate_payload`` is the schema check the CI smoke job runs against
the emitted file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import sqlite3
import sys
import tempfile
import time

#: Pre-cache translate+MOCUS seconds of the BWR case recorded on the CI
#: reference runner before the MOCUS subsumption-skip/memo work (the
#: jobs=1 run of the previous BENCH_quantify.json: 2.1355s wall minus
#: 0.2990s quantification).  Kept so the release-over-release reduction
#: is visible in the payload itself.
BWR_TRANSLATE_MOCUS_BASELINE_SECONDS = 1.8365

#: Models too small for the warm-full speedup to beat process noise;
#: they are exempt from the ``--min-warm-speedup`` gate.
_GATE_EXEMPT = ("cooling",)


def _masked_records(result):
    return [
        dataclasses.replace(r, solve_seconds=0.0) for r in result.records
    ]


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _scrub_records_layer(cache_dir: str) -> None:
    """Drop the records layer so a rerun re-executes the pipeline.

    Leaves the solve layer intact — exactly the state a user
    sees after changing a run option that is part of the records key
    but not of the per-model solve keys.
    """
    db = os.path.join(cache_dir, "solve-cache.sqlite")
    if not os.path.exists(db):
        return
    with sqlite3.connect(db) as connection:
        connection.execute("DELETE FROM entries WHERE kind = 'records'")


def _stages(result, wall: float) -> dict:
    """Per-stage wall breakdown of one analysis run."""
    translate = result.timings.translation_seconds
    mocus = result.timings.mcs_generation_seconds
    quantify = result.timings.quantification_seconds
    return {
        "wall_seconds": round(wall, 4),
        "translate_seconds": round(translate, 4),
        "mocus_seconds": round(mocus, 4),
        "quantification_seconds": round(quantify, 4),
        "other_seconds": round(
            max(0.0, wall - translate - mocus - quantify), 4
        ),
    }


def build_cases(scale: float, tiny: bool):
    """``(name, sdft, options_kwargs)`` triples of the sweep."""
    from repro.core.sdft import SdFaultTreeBuilder
    from repro.ctmc.builders import repairable, triggered_repairable

    b = SdFaultTreeBuilder("cooling-sd")
    b.static_event("a", 3e-3).static_event("c", 3e-3).static_event("e", 3e-6)
    b.dynamic_event("b", repairable(0.001, 0.05))
    b.dynamic_event("d", triggered_repairable(0.001, 0.05))
    b.or_("pump1", "a", "b").or_("pump2", "c", "d")
    b.and_("pumps", "pump1", "pump2")
    b.or_("cooling", "pumps", "e")
    b.trigger("pump1", "d")
    cooling = b.build("cooling")
    cases = [("cooling", cooling, {})]
    if tiny:
        return cases

    from repro.ft.mocus import MocusOptions, mocus
    from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr
    from repro.models.enrich import dynamize, plan_dynamization
    from repro.models.synthetic import model_1

    bwr = build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))
    cases.append(("bwr", bwr, {}))

    tree = model_1(scale)
    cutsets = mocus(tree, MocusOptions(cutoff=1e-10)).cutsets
    plan = plan_dynamization(cutsets, 0.3, 0.5)
    cases.append(
        ("synthetic-1-dynamized", dynamize(tree, plan, 24.0), {"cutoff": 1e-10})
    )
    return cases


def run_case(name: str, sdft, jobs_list, options_kwargs) -> dict:
    """Sweep one model over jobs and cache temperatures; assert identity."""
    from repro.core.analyzer import AnalysisOptions, analyze

    cache_dir = tempfile.mkdtemp(prefix=f"bench-cache-{name}-")
    runs = []
    try:
        # Phase 1 — cold baseline: empty cache, serial.
        started = time.perf_counter()
        baseline = analyze(
            sdft,
            AnalysisOptions(
                jobs=jobs_list[0], cache_dir=cache_dir, **options_kwargs
            ),
        )
        cold_wall = time.perf_counter() - started
        cold = _stages(baseline, cold_wall)
        cold_quantify = baseline.timings.quantification_seconds
        runs.append({"jobs": baseline.perf.jobs, "cache": "cold", **cold})
        print(
            f"[{name}] jobs={jobs_list[0]} cold: total {cold_wall:.2f}s "
            f"(translate {cold['translate_seconds']:.2f}s, "
            f"mocus {cold['mocus_seconds']:.2f}s, "
            f"quantify {cold['quantification_seconds']:.2f}s)",
            flush=True,
        )

        # Phase 2 — warm solve layer under the remaining jobs
        # values: the records layer is scrubbed before each run so the
        # pipeline executes, but every unique solve is a cache hit.
        for jobs in jobs_list[1:]:
            _scrub_records_layer(cache_dir)
            started = time.perf_counter()
            result = analyze(
                sdft,
                AnalysisOptions(
                    jobs=jobs, cache_dir=cache_dir, **options_kwargs
                ),
            )
            wall = time.perf_counter() - started
            assert (
                result.failure_probability == baseline.failure_probability
            ), f"{name}: jobs={jobs} changed the failure probability"
            assert _masked_records(result) == _masked_records(baseline), (
                f"{name}: jobs={jobs} changed the per-cutset records"
            )
            stages = _stages(result, wall)
            quantify = result.timings.quantification_seconds
            runs.append(
                {
                    "jobs": result.perf.jobs,
                    "cache": "warm-solve",
                    **stages,
                    "quantification_speedup": round(
                        cold_quantify / quantify, 3
                    )
                    if quantify > 0.0
                    else 1.0,
                }
            )
            print(
                f"[{name}] jobs={jobs} warm-solve: total {wall:.2f}s, "
                f"quantification {quantify:.2f}s "
                f"({runs[-1]['quantification_speedup']}x vs cold)",
                flush=True,
            )

        # Phase 3 — warm-full rerun: the records layer restores the
        # whole result; the end-to-end speedup of a byte-identical
        # re-analysis.
        started = time.perf_counter()
        rewarm = analyze(
            sdft,
            AnalysisOptions(
                jobs=jobs_list[0], cache_dir=cache_dir, **options_kwargs
            ),
        )
        warm_wall = time.perf_counter() - started
        assert (
            rewarm.failure_probability == baseline.failure_probability
        ), f"{name}: the cached rerun changed the failure probability"
        assert _masked_records(rewarm) == _masked_records(baseline), (
            f"{name}: the cached rerun changed the per-cutset records"
        )
        restored = any(
            "full-result hit" in event.message
            for event in rewarm.health.events
            if event.stage == "cache"
        )
        warm_cache = {
            "cold_wall_seconds": round(cold_wall, 4),
            "warm_wall_seconds": round(warm_wall, 4),
            "end_to_end_speedup": round(cold_wall / warm_wall, 2)
            if warm_wall > 0.0
            else 1.0,
            "records_restored": restored,
            "identical_to_cold": True,
        }
        print(
            f"[{name}] warm-full rerun: {warm_wall:.3f}s vs cold "
            f"{cold_wall:.2f}s ({warm_cache['end_to_end_speedup']}x)",
            flush=True,
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    states_solved = sum(
        r.chain_states for r in baseline.records if not r.cache_hit
    )
    verify = measure_verify_overhead(name, sdft, options_kwargs)
    case = {
        "model": name,
        "n_cutsets": baseline.n_cutsets,
        "n_dynamic_cutsets": baseline.n_dynamic_cutsets,
        "dynamic_solves": baseline.perf.dynamic_solves,
        "unique_models_solved": baseline.perf.unique_models_solved,
        "dedup_ratio": round(baseline.perf.dedup_ratio, 4),
        "states_solved": states_solved,
        "failure_probability": baseline.failure_probability,
        "identical_across_jobs": True,
        "runs": runs,
        "warm_cache": warm_cache,
        "verify_overhead": verify,
    }
    if name == "bwr":
        translate_mocus = cold["translate_seconds"] + cold["mocus_seconds"]
        case["translate_mocus_seconds"] = round(translate_mocus, 4)
        case["translate_mocus_baseline_seconds"] = (
            BWR_TRANSLATE_MOCUS_BASELINE_SECONDS
        )
        case["translate_mocus_reduction_pct"] = round(
            100.0
            * (1.0 - translate_mocus / BWR_TRANSLATE_MOCUS_BASELINE_SECONDS),
            1,
        )
        print(
            f"[{name}] translate+mocus: {translate_mocus:.2f}s vs recorded "
            f"baseline {BWR_TRANSLATE_MOCUS_BASELINE_SECONDS:.2f}s "
            f"({case['translate_mocus_reduction_pct']:+.1f}% reduction)",
            flush=True,
        )
    return case


def measure_verify_overhead(
    name: str, sdft, options_kwargs, repeats: int = 3
) -> dict:
    """Cost of ``verify="cheap"`` relative to ``verify="off"`` (serial).

    The invariant guards run on the hot per-record path, so their cost
    must stay in the noise (the acceptance budget is 5 %).  Runs are
    interleaved and the minimum wall time of each mode is compared —
    the standard way to suppress scheduler noise in a micro-ish
    benchmark.  Also asserts the observer property: cheap verification
    must not change a single analysis value.  Runs cache-less — the
    point is the guard overhead, not cache temperature.
    """
    from repro.core.analyzer import AnalysisOptions, analyze

    timings = {"off": [], "cheap": []}
    results = {}
    for _ in range(repeats):
        for mode in ("off", "cheap"):
            started = time.perf_counter()
            result = analyze(
                sdft, AnalysisOptions(jobs=1, verify=mode, **options_kwargs)
            )
            timings[mode].append(time.perf_counter() - started)
            results[mode] = result
    assert (
        results["cheap"].failure_probability
        == results["off"].failure_probability
    ), f"{name}: verify='cheap' changed the failure probability"
    assert _masked_records(results["cheap"]) == _masked_records(
        results["off"]
    ), f"{name}: verify='cheap' changed the per-cutset records"
    off_best = min(timings["off"])
    cheap_best = min(timings["cheap"])
    overhead_pct = (
        100.0 * (cheap_best - off_best) / off_best if off_best > 0.0 else 0.0
    )
    print(
        f"[{name}] verify overhead: off {off_best:.3f}s, "
        f"cheap {cheap_best:.3f}s ({overhead_pct:+.1f}%)",
        flush=True,
    )
    return {
        "off_seconds": round(off_best, 4),
        "cheap_seconds": round(cheap_best, 4),
        "overhead_pct": round(overhead_pct, 2),
        "identical_to_off": True,
    }


def measure_static_engines(horizon: float = 24.0) -> dict:
    """BDD-exact vs cutset quantification on the static BWR tree.

    Compiles the trigger-free BWR model's static translation with the
    production BDD quantifier and compares value, wall time and the
    served estimator against the classical MOCUS + aggregation path.
    Asserts the soundness bracket the analyzer relies on:
    ``largest single cutset <= exact <= cutset estimate``.
    """
    from repro.bdd.quantify import quantify_static_tree
    from repro.core.to_static import to_static
    from repro.ft.mocus import MocusOptions, mocus
    from repro.models.bwr import BwrConfig, build_bwr

    sdft = build_bwr(BwrConfig(triggers=()))
    tree = to_static(sdft, horizon).tree

    started = time.perf_counter()
    exact = quantify_static_tree(tree)
    bdd_wall = time.perf_counter() - started

    started = time.perf_counter()
    cutsets = mocus(tree, MocusOptions(cutoff=1e-12)).cutsets
    estimate, estimator = cutsets.sound_estimate()
    mcs_wall = time.perf_counter() - started

    slack = 1e-9 * max(1.0, exact.probability)
    assert estimate >= exact.probability - slack, (
        "cutset estimate fell below the exact BDD probability"
    )
    assert cutsets.largest_cutset_probability() <= exact.probability + slack, (
        "exact BDD probability fell below the largest single cutset"
    )
    overestimate_pct = (
        100.0 * (estimate - exact.probability) / exact.probability
        if exact.probability > 0.0
        else 0.0
    )
    print(
        f"[bwr-static] bdd-exact {exact.probability:.6e} "
        f"({exact.node_count} nodes, order {exact.ordering}, "
        f"{exact.n_modules} modules, {bdd_wall:.3f}s) vs "
        f"mcs {estimate:.6e} ({estimator}, {len(cutsets)} cutsets, "
        f"{mcs_wall:.3f}s; +{overestimate_pct:.3f}% over exact)",
        flush=True,
    )
    return {
        "model": "bwr-static",
        "horizon": horizon,
        "bdd": {
            "probability": exact.probability,
            "nodes": exact.node_count,
            "ordering": exact.ordering,
            "modules": exact.n_modules,
            "wall_seconds": round(bdd_wall, 4),
        },
        "mcs": {
            "estimate": estimate,
            "estimator": estimator,
            "n_cutsets": len(cutsets),
            "wall_seconds": round(mcs_wall, 4),
        },
        "rare_event_overestimate_pct": round(overestimate_pct, 4),
        "bracket_holds": True,
    }


def validate_payload(payload: dict) -> None:
    """Schema check of an emitted ``BENCH_quantify.json`` (raises on error)."""

    def expect(condition, message):
        if not condition:
            raise ValueError(f"BENCH_quantify.json schema: {message}")

    expect(isinstance(payload, dict), "payload must be an object")
    expect(
        payload.get("benchmark") == "parallel_quantify",
        "benchmark must be 'parallel_quantify'",
    )
    for key, kind in (
        ("cpu_count", int),
        ("python", str),
        ("platform", str),
        ("jobs_swept", list),
        ("cases", list),
    ):
        expect(isinstance(payload.get(key), kind), f"{key} must be {kind.__name__}")
    expect(payload["cpu_count"] >= 1, "cpu_count must be positive")
    expect(len(payload["cases"]) >= 1, "at least one case required")
    engines = payload.get("static_engine")
    expect(
        isinstance(engines, dict), "static_engine comparison must be present"
    )
    for side, fields in (
        ("bdd", ("probability", "nodes", "wall_seconds")),
        ("mcs", ("estimate", "n_cutsets", "wall_seconds")),
    ):
        block = engines.get(side)
        expect(isinstance(block, dict), f"static_engine.{side} must be an object")
        for key in fields:
            expect(
                isinstance(block.get(key), (int, float)),
                f"static_engine.{side}.{key} missing",
            )
    expect(
        isinstance(engines["bdd"].get("ordering"), str),
        "static_engine.bdd.ordering must name the heuristic used",
    )
    expect(
        engines.get("bracket_holds") is True,
        "static_engine: the soundness bracket failed",
    )
    for case in payload["cases"]:
        for key, kind in (
            ("model", str),
            ("n_cutsets", int),
            ("n_dynamic_cutsets", int),
            ("dynamic_solves", int),
            ("unique_models_solved", int),
            ("dedup_ratio", (int, float)),
            ("states_solved", int),
            ("failure_probability", (int, float)),
            ("runs", list),
        ):
            expect(
                isinstance(case.get(key), kind),
                f"case {case.get('model')!r}: {key} must be {kind}",
            )
        expect(
            case["identical_across_jobs"] is True,
            f"case {case['model']!r}: results differed across jobs",
        )
        expect(
            0.0 <= case["dedup_ratio"] < 1.0,
            f"case {case['model']!r}: dedup_ratio out of range",
        )
        expect(
            case["unique_models_solved"] <= case["dynamic_solves"],
            f"case {case['model']!r}: more unique solves than dynamic solves",
        )
        expect(len(case["runs"]) >= 1, f"case {case['model']!r}: no runs")
        verify = case.get("verify_overhead")
        expect(
            isinstance(verify, dict),
            f"case {case['model']!r}: verify_overhead must be an object",
        )
        for key in ("off_seconds", "cheap_seconds", "overhead_pct"):
            expect(
                isinstance(verify.get(key), (int, float)),
                f"case {case['model']!r}: verify_overhead.{key} missing",
            )
        expect(
            verify["identical_to_off"] is True,
            f"case {case['model']!r}: verify='cheap' changed results",
        )
        expect(
            case["runs"][0].get("cache") == "cold",
            f"case {case['model']!r}: first run must be the cold baseline",
        )
        for run in case["runs"]:
            for key in (
                "jobs",
                "wall_seconds",
                "translate_seconds",
                "mocus_seconds",
                "quantification_seconds",
                "other_seconds",
            ):
                expect(
                    isinstance(run.get(key), (int, float)),
                    f"case {case['model']!r}: run field {key} missing",
                )
            expect(
                run.get("cache") in ("cold", "warm-solve"),
                f"case {case['model']!r}: bad run cache label",
            )
        warm = case.get("warm_cache")
        expect(
            isinstance(warm, dict),
            f"case {case['model']!r}: warm_cache must be an object",
        )
        for key in (
            "cold_wall_seconds",
            "warm_wall_seconds",
            "end_to_end_speedup",
        ):
            expect(
                isinstance(warm.get(key), (int, float)),
                f"case {case['model']!r}: warm_cache.{key} missing",
            )
        expect(
            warm["identical_to_cold"] is True,
            f"case {case['model']!r}: the cached rerun changed results",
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        default="1,2,4",
        help="comma-separated worker counts to sweep (first is the baseline)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "0.6")),
        help="synthetic-model scale factor",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small cooling model only (CI smoke: seconds instead of minutes)",
    )
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=None,
        help="fail unless every non-trivial case rewarms at least this "
        "many times faster end-to-end than its cold run",
    )
    parser.add_argument(
        "--output",
        default="BENCH_quantify.json",
        help="path of the JSON payload",
    )
    args = parser.parse_args(argv)
    jobs_list = [int(value) for value in args.jobs.split(",") if value.strip()]
    if not jobs_list:
        parser.error("--jobs must name at least one worker count")

    cases = [
        run_case(name, sdft, jobs_list, options)
        for name, sdft, options in build_cases(args.scale, args.tiny)
    ]
    payload = {
        "benchmark": "parallel_quantify",
        "created_unix": int(time.time()),
        "cpu_count": _cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": args.scale,
        "tiny": args.tiny,
        "jobs_swept": jobs_list,
        "cases": cases,
        "static_engine": measure_static_engines(),
    }
    validate_payload(payload)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output} ({len(cases)} cases, cpus={payload['cpu_count']})")
    if args.min_warm_speedup is not None:
        gated = [
            case for case in cases if case["model"] not in _GATE_EXEMPT
        ]
        if not gated:
            print(
                "note: --min-warm-speedup gates no case in this sweep "
                "(all models are too small to time reliably)",
                flush=True,
            )
        slow = [
            case
            for case in gated
            if case["warm_cache"]["end_to_end_speedup"] < args.min_warm_speedup
        ]
        for case in slow:
            print(
                f"FAIL [{case['model']}]: warm-cache speedup "
                f"{case['warm_cache']['end_to_end_speedup']}x is below the "
                f"{args.min_warm_speedup}x floor",
                flush=True,
            )
        if slow:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
