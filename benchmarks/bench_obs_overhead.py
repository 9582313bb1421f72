"""Observability overhead: the disabled path must cost <= 2% — proven.

The observability layer (:mod:`repro.obs`) promises that an untraced
analysis pays essentially nothing for the instrumentation now threaded
through MOCUS, the quantification loop, the transient solver, the
ladder and the budgets.  This benchmark *proves* the bound instead of
eyeballing an A/B run (the uninstrumented code no longer exists to A/B
against, and run-to-run noise on small models dwarfs sub-percent
effects):

1. measure the per-call cost of every disabled primitive the hot paths
   invoke — entering/exiting the shared null span, setting attributes
   on it, ``NULL_METRICS`` counter/observe calls, the ``obs or
   NULL_OBS`` resolution;
2. count how often an untraced analysis actually invokes each
   primitive: the null tracer, the null span and the null registry
   tally their own calls during the run (the collection design emits
   once per solve or per run, never inside inner loops);
3. assert ``sum(cost x calls) <= 2%`` of that run's quantification
   wall time.

Run as a script::

    python benchmarks/bench_obs_overhead.py [--json]

or through pytest (``pytest benchmarks/bench_obs_overhead.py -s``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter

#: The promised ceiling on disabled-path overhead.
OVERHEAD_BUDGET = 0.02


def _time_per_call(fn, n: int = 200_000) -> float:
    """Median-of-5 per-call wall time of ``fn`` over ``n`` iterations."""
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        timings.append((time.perf_counter() - start) / n)
    return sorted(timings)[2]


def measure_null_primitives() -> dict:
    """Per-call wall cost of each disabled observability primitive."""
    from repro.obs.core import NULL_OBS
    from repro.obs.metrics import NULL_METRICS
    from repro.obs.trace import NULL_TRACER

    def null_span():
        with NULL_TRACER.span("x", attr=1):
            pass

    null = NULL_TRACER.span("x")

    def null_set():
        null.set(chain_states=3, probability=0.5)

    def null_count():
        NULL_METRICS.count("x", 3)

    def null_observe():
        NULL_METRICS.observe("x", 1.0)

    def resolve():
        obs = None
        obs = obs if obs is not None else NULL_OBS
        return obs

    return {
        "span": _time_per_call(null_span),
        "set": _time_per_call(null_set),
        "count": _time_per_call(null_count),
        "observe": _time_per_call(null_observe),
        "resolve": _time_per_call(resolve),
    }


def build_model():
    """The fictive BWR study — the reference workload of the repo."""
    from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr

    return build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))


def instrumentation_call_counts(sdft, options_kwargs) -> dict:
    """How often one untraced analysis touches each disabled primitive.

    Counted, not estimated: the analysis runs with observability off
    while the null tracer's ``span``, the null span's ``set`` and the
    null registry's ``count``/``observe`` tally their calls.  The
    methods are patched on the classes, so call sites that hold
    ``NULL_TRACER`` or ``NULL_METRICS`` directly are counted too.  The
    inline ``obs or NULL_OBS`` resolutions cannot count themselves;
    they are budgeted at a handful per record.
    """
    from unittest import mock

    from repro.core.analyzer import AnalysisOptions, analyze
    from repro.obs.metrics import NullMetrics
    from repro.obs.trace import NullTracer, _NullSpan

    tally: Counter = Counter()

    def counted(kind, method):
        def call(self, *args, **kwargs):
            tally[kind] += 1
            return method(self, *args, **kwargs)

        return call

    with mock.patch.object(
        NullTracer, "span", counted("spans", NullTracer.span)
    ), mock.patch.object(
        _NullSpan, "set", counted("sets", _NullSpan.set)
    ), mock.patch.object(
        NullMetrics, "count", counted("counts", NullMetrics.count)
    ), mock.patch.object(
        NullMetrics, "observe", counted("observes", NullMetrics.observe)
    ):
        result = analyze(sdft, AnalysisOptions(**options_kwargs))
    n_records = len(result.records)
    # ``obs or NULL_OBS``-style resolutions: a handful per quantified
    # cutset across quantify_cutset/quantify_model/_uniformization.
    resolves = 4 * n_records

    return {
        "spans": tally["spans"],
        "sets": tally["sets"],
        "counts": tally["counts"],
        "observes": tally["observes"],
        "resolves": resolves,
        "quantify_seconds": result.timings.quantification_seconds,
        "total_seconds": result.timings.total_seconds,
        "n_records": n_records,
        "n_solves": result.cache_misses,
    }


def overhead_report(primitives: dict, calls: dict) -> dict:
    """The projected disabled-path overhead against the 2% budget."""
    projected = (
        calls["spans"] * primitives["span"]
        + calls["sets"] * primitives["set"]
        + calls["counts"] * primitives["count"]
        + calls["observes"] * primitives["observe"]
        + calls["resolves"] * primitives["resolve"]
    )
    baseline = calls["quantify_seconds"]
    return {
        "projected_overhead_seconds": projected,
        "quantify_seconds": baseline,
        "overhead_fraction": projected / baseline if baseline > 0 else 0.0,
        "budget_fraction": OVERHEAD_BUDGET,
    }


def run(options_kwargs=None) -> dict:
    primitives = measure_null_primitives()
    calls = instrumentation_call_counts(build_model(), options_kwargs or {})
    report = overhead_report(primitives, calls)
    return {
        "benchmark": "obs_overhead",
        "primitives_seconds_per_call": primitives,
        "calls": calls,
        "report": report,
    }


def test_disabled_overhead_within_budget():
    """The <= 2% guarantee documented in docs/observability.md."""
    payload = run()
    report = payload["report"]
    assert report["overhead_fraction"] <= OVERHEAD_BUDGET, (
        f"disabled observability projected at "
        f"{report['overhead_fraction']:.2%} of quantification time, "
        f"budget is {OVERHEAD_BUDGET:.0%}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", action="store_true", help="emit the payload as JSON"
    )
    args = parser.parse_args(argv)
    payload = run()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        primitives = payload["primitives_seconds_per_call"]
        report = payload["report"]
        print("disabled-primitive costs (per call):")
        for name, cost in primitives.items():
            print(f"  {name:10s} {cost * 1e9:8.1f} ns")
        calls = payload["calls"]
        print(
            f"instrumentation touches per analysis: "
            f"{calls['spans']} spans, {calls['sets']} span sets, "
            f"{calls['counts']} counts, "
            f"{calls['observes']} observations, {calls['resolves']} resolutions"
        )
        print(
            f"projected disabled overhead: "
            f"{report['projected_overhead_seconds'] * 1e3:.3f} ms over a "
            f"{report['quantify_seconds']:.3f} s quantification phase "
            f"= {report['overhead_fraction']:.3%} "
            f"(budget {report['budget_fraction']:.0%})"
        )
    ok = payload["report"]["overhead_fraction"] <= OVERHEAD_BUDGET
    print("PASS" if ok else "FAIL: overhead budget exceeded")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
