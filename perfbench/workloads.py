"""The workloads of the cold-path benchmark.

Every workload is a closed loop from one process: the next call is
issued only after the previous one returned; no threads, at most two
farm workers.  Each timed answer is checked against a reference
computed untimed.  See ``README.md`` for why each workload exists and
which layer metric should move which end-to-end metric.

* ``bwr-cold``      — cold ``analyze()`` of the triggered BWR (MOCUS-bound).
* ``erlang-serial`` — cold ``analyze()`` of the dynamized synthetic
  model 1, two Erlang phases, ``jobs=1`` (chain-bound).
* ``erlang-farm``   — the same inputs at ``jobs=2`` on the warm solver
  farm, whose fork is part of set-up.
* ``bwr-whatif``    — edit/re-analyze cycles through the service
  daemon with the persistent cache on (service + sqlite layers).

The metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import measure
from replay import LAYERS, replay, same_records

from repro.core.analyzer import AnalysisOptions, analyze
from repro.ft.mocus import mocus
from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr
from repro.models.enrich import dynamize, plan_dynamization
from repro.models.formats import sdft_to_dict
from repro.models.synthetic import SyntheticConfig, build_synthetic
from repro.perf.pool import shutdown_warm_farm
from repro.service.daemon import ServiceDaemon
from repro.service.edits import ScaleRates, SetProbability, apply_edits, edit_to_dict

_DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: Unit of every declared metric, by name.
UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}
#: Names of the per-layer metrics; a workload that does not exercise a
#: layer reports 0 for it.
PER_LAYER = tuple(m["name"] for m in _DECLARED["per_layer"])
#: Names of the end-to-end metrics.
END_TO_END = tuple(m["name"] for m in _DECLARED["end_to_end"])

HORIZON = 24.0
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Traced replays per run, at least (more while ``--seconds`` lasts).
MIN_REPLAYS = 3
#: Timed operations per run, at least, so that no median rests on one
#: or two samples even when the host is slow.
MIN_OPS = 4

#: The generator configuration of :func:`repro.models.synthetic.model_1`.
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
#: Scale of the phase experiment (``benchmarks/conftest.py`` default).
MODEL_1_SCALE = 0.6
#: Generator seeds whose dynamized model has model 1's shape: total
#: solved chain states, unique solves and cutsets within a narrow band
#: of seed 101's (42,549 / 563 / 1,966).  Most generator seeds give a
#: model 3x cheaper or dearer, so the workload seed indexes this table
#: instead; index 0 reproduces ``model_1``.
SHAPE_SEEDS = (101, 43, 19)

#: Distinct edit cycles of one what-if script (each needs two cold
#: reference analyses, computed untimed).
WHATIF_CYCLES = 3


@dataclass
class Outcome:
    """What a run reports: the tally, the metrics and run metadata."""

    tally: measure.Tally = field(default_factory=measure.Tally)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def with_units(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Attach the declared unit to each metric; an undeclared name raises."""
    return {name: (value, UNITS[name]) for name, value in values.items()}


def run(
    workload: str, seed: int, seconds: float, trace: bool, workdir: str, import_s: float
) -> Outcome:
    """Run one workload; ``trace`` selects the per-layer run.

    ``import_s`` is how long this process took to import the analyzer;
    it is the first term of ``setup_s``.
    """
    try:
        if workload == "bwr-whatif":
            return _whatif(seed, seconds, trace, workdir, import_s)
        if workload == "bwr-cold":
            build, meta = bwr_cold_inputs, {"seed_used": False}
        else:
            generator_seed = SHAPE_SEEDS[seed % len(SHAPE_SEEDS)]
            jobs = 2 if workload == "erlang-farm" else 1
            build = functools.partial(erlang_inputs, generator_seed, jobs)
            meta = {"generator_seed": generator_seed}
        if trace:
            outcome = _cold_traced(build, seconds)
        else:
            outcome = _cold(build, seconds, import_s)
        outcome.meta.update(meta)
        return outcome
    finally:
        shutdown_warm_farm()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def bwr_model():
    """The BWR study with every trigger stage and repairable pumps."""
    return build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))


def bwr_cold_inputs():
    """``bwr-cold``: the BWR under default options (no seed applies)."""
    return bwr_model(), AnalysisOptions()


def erlang_inputs(generator_seed: int, jobs: int = 1):
    """The §VI-B phase experiment on the synthetic model-1 stand-in.

    40 % of the events (by Fussell-Vesely rank) become two-phase Erlang
    chains, 10 % of those triggered; MOCUS keeps the static
    probabilities (the paper's static cutoff), only quantification sees
    the chains.  At three phases every record falls below the cutoff.
    """
    tree = build_synthetic(replace(MODEL_1, seed=generator_seed).scaled(MODEL_1_SCALE))
    plan = plan_dynamization(mocus(tree).cutsets, 0.4, 0.1)
    sdft = dynamize(tree, plan, horizon=HORIZON, phases=2)
    overrides = {name: tree.events[name].probability for name in plan.dynamic_events}
    options = AnalysisOptions(
        horizon=HORIZON, mocus_probability_overrides=overrides, jobs=jobs
    )
    return sdft, options


# ----------------------------------------------------------------------
# Cold workloads
# ----------------------------------------------------------------------


def _cold_setup(build):
    """Build the inputs: ``(seconds, sdft, options)``.

    At ``jobs=2`` set-up includes the first analysis, which forks a
    fresh warm farm.
    """
    shutdown_warm_farm()
    started = time.perf_counter()
    sdft, opts = build()
    if opts.jobs > 1:
        analyze(sdft, opts)
    return time.perf_counter() - started, sdft, opts


def check_cold(result, reference) -> tuple[str, bool] | None:
    """A cold answer against the reference: ``None`` or ``(reason, wrong)``."""
    if (
        result.failure_probability != reference.failure_probability
        or len(result.records) != len(reference.records)
    ):
        return (
            f"wrong answer {result.failure_probability!r} over "
            f"{len(result.records)} records, expected "
            f"{reference.failure_probability!r} over {len(reference.records)}",
            True,
        )
    if result.is_degraded:
        return "degraded or unclean answer", False
    return None


def _cold(build, seconds: float, import_s: float) -> Outcome:
    reps = [_cold_setup(build) for _ in range(SETUP_REPS)]
    _, sdft, opts = reps[-1]
    reference = analyze(sdft, replace(opts, jobs=1))
    outcome = Outcome()
    meter = measure.Meter(sample_inside=opts.jobs == 1)
    deadline = time.perf_counter() + seconds
    while len(meter.wall_s) < MIN_OPS or time.perf_counter() < deadline:
        result = None
        with meter.op():
            try:
                result = analyze(sdft, opts)
            except Exception as error:  # noqa: BLE001 - a failed op is counted
                outcome.tally.record((f"{type(error).__name__}: {error}", False))
        if result is not None:
            outcome.tally.record(check_cold(result, reference))
    setup_s = import_s + statistics.median(rep[0] for rep in reps)
    outcome.metrics = _end_to_end(setup_s, meter, outcome.tally)
    outcome.meta.update(
        samples=len(meter.wall_s),
        **meter.summary(),
        records=len(reference.records),
        unique_solves=reference.cache_misses,
        quantify_share=reference.timings.quantification_seconds
        / reference.timings.total_seconds,
    )
    return outcome


def _cold_traced(build, seconds: float) -> Outcome:
    """Untraced ``analyze()`` alternating with the traced replay.

    The replay always runs serially; at ``jobs=2`` the untraced
    analyses run on the warm farm and give the ``pool.*`` metrics, and
    the replay's records must still equal theirs bit for bit.
    """
    _, sdft, opts = _cold_setup(build)
    farm = opts.jobs > 1
    outcome = Outcome()
    analysis_times, quantify_times, worker_cpu = [], [], []
    replays, replay_times = [], []
    faults = 0
    deadline = time.perf_counter() + seconds
    while len(replays) < MIN_REPLAYS or time.perf_counter() < deadline:
        workers_before = measure.children_cpu_s()
        started = time.perf_counter()
        result = analyze(sdft, opts)
        analysis_times.append(time.perf_counter() - started)
        if farm:
            worker_cpu.append(measure.children_cpu_s() - workers_before)
            quantify_times.append(result.timings.quantification_seconds)
            faults += result.perf.worker_faults

        started = time.perf_counter()
        replayed = replay(sdft, opts)
        replay_times.append(time.perf_counter() - started)
        replays.append(replayed)
        if not same_records(replayed.records, result.records):
            outcome.tally.record(("replay records differ from analyze()", True))
        elif replayed.failure_probability != result.failure_probability:
            outcome.tally.record(("replay probability differs", True))
        elif replayed.counts != replays[0].counts:
            outcome.tally.record(("replay counts did not repeat exactly", True))
        else:
            outcome.tally.record(None)

    def self_s(layer: str) -> float:
        return statistics.median(r.spans.self_s[layer] for r in replays)

    counts = replays[0].counts
    builds = counts["cutset_model.builds"]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(
        {
            "to_static.self_s": self_s("core.to_static"),
            "mocus.self_s": self_s("ft.mocus"),
            "mocus.partials_expanded": counts["mocus.partials_expanded"],
            "mocus.cutsets": counts["mocus.cutsets"],
            "mocus.yield": counts["mocus.minimal"]
            / max(1, counts["mocus.partials_expanded"]),
            "classify.self_s": self_s("core.classify"),
            "cutset_model.self_s": self_s("core.cutset_model"),
            "cutset_model.builds": builds,
            "cutset_model.unique_ratio": counts["quantify.dedup_misses"]
            / max(1, builds),
            "quantify.self_s": self_s("core.quantify"),
            "quantify.dedup_hits": counts["quantify.dedup_hits"],
            "quantify.dedup_misses": counts["quantify.dedup_misses"],
            "product.self_s": self_s("ctmc.product"),
            "product.states": counts["product.states"],
            "product.states_max": counts["product.states_max"],
            "transient.self_s": self_s("ctmc.transient"),
            "transient.solves": counts["transient.solves"],
            "transient.series_terms": counts["transient.series_terms"],
            "pool.quantify_s": statistics.median(quantify_times) if farm else 0.0,
            "pool.worker_cpu_s": statistics.median(worker_cpu) if farm else 0.0,
            "pool.worker_faults": faults,
            "trace.overhead_ratio": statistics.median(replay_times)
            / statistics.median(analysis_times),
        }
    )
    outcome.metrics = with_units(metrics)
    outcome.meta.update(
        replays=len(replays),
        layer_self_s={layer: self_s(layer) for layer in LAYERS},
        untraced_analysis_s=statistics.median(analysis_times),
        traced_s=statistics.median(replay_times),
    )
    return outcome


# ----------------------------------------------------------------------
# The what-if service workload
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One edit request, and the answer the reanalyze after it must give."""

    edits: tuple
    probability: float
    n_cutsets: int


def whatif_cycles(model, seed: int, cycles: int = WHATIF_CYCLES):
    """The seeded edit script: ``(halving, halving, revert)`` triples.

    Each cycle halves one dynamic event's rates and one static event's
    probability, in a seeded order, then reverts both in one request.
    The halvings take the ``retruncate`` path (no MOCUS); the revert
    raises probabilities and takes the ``modular`` path.  Rates x0.5
    then x2 and the restored probability are exact in floating point,
    so a revert must reproduce the set-up answer.
    """
    rng = random.Random(seed)
    dynamic = rng.sample(sorted(model.dynamic_events), cycles)
    static = rng.sample(sorted(model.static_events), cycles)
    script = []
    for rated, probed in zip(dynamic, static):
        p = model.static_events[probed].probability
        halvings = [ScaleRates(rated, 0.5), SetProbability(probed, p * 0.5)]
        rng.shuffle(halvings)
        script.append((*halvings, (ScaleRates(rated, 2.0), SetProbability(probed, p))))
    return script


def whatif_steps(model, seed: int, setup_answer: dict) -> list[list[Step]]:
    """The script's cycles, each step with its reference answer.

    A halving must match a cold ``analyze()`` of the edited model (cache
    off); a revert must match the session's set-up answer.
    """
    cycles = []
    for first, second, revert in whatif_cycles(model, seed):
        steps = []
        for applied, edits in (([first], (first,)), ([first, second], (second,))):
            cold = analyze(apply_edits(model, applied), AnalysisOptions())
            steps.append(Step(edits, cold.failure_probability, len(cold.records)))
        steps.append(
            Step(revert, setup_answer["probability"], setup_answer["n_cutsets"])
        )
        cycles.append(steps)
    return cycles


class WhatIfSession:
    """A daemon with one loaded model, driven one request at a time."""

    def __init__(self, model, cache_dir: str | None) -> None:
        self.daemon = ServiceDaemon(AnalysisOptions(cache_dir=cache_dir))
        loaded = self.request({"op": "load", "model": sdft_to_dict(model)})[0]
        if not loaded.get("ok"):
            raise RuntimeError(f"load refused: {loaded}")
        self.session = loaded["session"]
        self.first, self.first_s = self.request(
            {"op": "analyze", "session": self.session}
        )

    def request(self, request: dict) -> tuple[dict, float]:
        started = time.perf_counter()
        response = self.daemon.handle_request(request)
        return response, time.perf_counter() - started

    def pair(self, step: Step):
        """Edit + reanalyze: ``(edit_s, reanalyze_s, mode, failure)``."""
        edit, edit_s = self.request(
            {
                "op": "edit",
                "session": self.session,
                "edits": [edit_to_dict(e) for e in step.edits],
            }
        )
        answer, answer_s = self.request({"op": "reanalyze", "session": self.session})
        failure = check_response(edit) or check_response(answer)
        if failure is None and (
            answer["probability"] != step.probability
            or answer["n_cutsets"] != step.n_cutsets
        ):
            failure = (
                f"wrong answer {answer['probability']!r} over "
                f"{answer['n_cutsets']} cutsets, expected {step.probability!r} "
                f"over {step.n_cutsets}",
                True,
            )
        return edit_s, answer_s, answer.get("mode", ""), failure

    def stats(self) -> dict:
        return self.request({"op": "stats"})[0]["sessions"][self.session]


def check_response(response: dict) -> tuple[str, bool] | None:
    """A refused, degraded or unclean response as ``(reason, wrong)``."""
    op = response.get("op", "?")
    if not response.get("ok"):
        return f"{op} refused: {response.get('error', response)}", False
    if response.get("degraded"):
        return f"{op} degraded: {response.get('notes')}", False
    if op in ("analyze", "reanalyze") and response.get("verified") is not True:
        return f"{op} health not clean: {response.get('notes')}", False
    return None


def _fresh_dir(workdir: str, name: str) -> str:
    path = os.path.join(workdir, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _whatif_setup(workdir: str):
    started = time.perf_counter()
    model = bwr_model()
    session = WhatIfSession(model, _fresh_dir(workdir, "cache"))
    return time.perf_counter() - started, model, session


@dataclass
class Drive:
    """Per-pair times of a what-if drive; the meter times whole cycles."""

    meter: measure.Meter = field(default_factory=measure.Meter)
    pairs: list[float] = field(default_factory=list)
    edits: list[float] = field(default_factory=list)
    by_mode: dict[str, list[float]] = field(default_factory=dict)


def _drive(session, cycles, seconds: float, min_cycles: int, tally) -> Drive:
    """Whole script cycles until ``seconds`` and ``min_cycles`` are met.

    One timed operation is one cycle: halving, halving, revert, each an
    edit + reanalyze pair, so every cycle runs the retruncate path twice
    and the modular path once.
    """
    drive = Drive()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(drive.meter.wall_s) < min_cycles:
        for steps in cycles:
            with drive.meter.op():
                for step in steps:
                    edit_s, answer_s, mode, failure = session.pair(step)
                    tally.record(failure)
                    drive.pairs.append(edit_s + answer_s)
                    drive.edits.append(edit_s)
                    drive.by_mode.setdefault(mode, []).append(answer_s)
    return drive


def _whatif(
    seed: int, seconds: float, trace: bool, workdir: str, import_s: float
) -> Outcome:
    outcome = Outcome(meta={"script_seed": seed})
    reps = [_whatif_setup(workdir) for _ in range(1 if trace else SETUP_REPS)]
    _, model, session = reps[-1]
    outcome.tally.record(check_response(session.first))
    cycles = whatif_steps(model, seed, session.first)
    outcome.meta["script"] = [
        [edit_to_dict(e) for step in steps for e in step.edits] for steps in cycles
    ]

    if not trace:
        drive = _drive(session, cycles, seconds, MIN_OPS, outcome.tally)
        setup_s = import_s + statistics.median(rep[0] for rep in reps)
        outcome.metrics = _end_to_end(setup_s, drive.meter, outcome.tally)
        modes = {mode: len(times) for mode, times in drive.by_mode.items()}
        outcome.meta.update(
            samples=len(drive.meter.wall_s), **drive.meter.summary(), modes=modes
        )
        return outcome

    # Enough pairs (three per cycle) that ten lie beyond the 90th percentile.
    min_cycles = math.ceil(measure.MIN_TAIL * 10 / 3)
    drive = _drive(session, cycles, seconds, min_cycles, outcome.tally)
    stats = session.stats()
    uncached = WhatIfSession(model, None)
    outcome.tally.record(check_response(uncached.first))
    baseline = _drive(uncached, cycles, 0.0, MIN_OPS * len(cycles), outcome.tally)

    lookups = stats["family_hits"] + stats["family_misses"]
    p90 = measure.tail_percentile(drive.pairs, 90)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(
        {
            "service.edit_s": statistics.median(drive.edits),
            "service.family_hit_ratio": stats["family_hits"] / max(1, lookups),
            "cache.reanalyze_overhead_s": statistics.median(drive.pairs)
            - statistics.median(baseline.pairs),
            "reanalyze_s.p90": p90 if p90 is not None else 0.0,
        }
    )
    for mode in ("retruncate", "modular", "full"):
        times = drive.by_mode.get(mode, [])
        metrics[f"service.mode.{mode}"] = len(times)
        if mode == "full":
            times = times + [session.first_s]  # the set-up analyze is a full run
        median = statistics.median(times) if times else 0.0
        metrics[f"service.reanalyze_s.{mode}"] = median
    outcome.metrics = with_units(metrics)
    outcome.meta.update(samples=len(drive.pairs), session_stats=stats)
    return outcome


def _end_to_end(setup_s: float, meter: measure.Meter, tally: measure.Tally) -> dict:
    """The end-to-end metrics; times are medians in reference-loop units."""
    return with_units(
        {
            "setup_s": setup_s,
            "analysis.p50": statistics.median(meter.wall_ref),
            "cpu.per_op": statistics.median(meter.cpu_ref),
            "peak_rss_mb": measure.footprint_mb(),
            "success_rate": tally.success_rate,
        }
    )
