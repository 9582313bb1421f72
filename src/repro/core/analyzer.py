"""End-to-end analysis of SD fault trees (the paper's Section V pipeline).

:func:`analyze` chains the three phases:

1. **Translate** — build the static tree ``FT̄`` with worst-case
   probabilities for dynamic events (:mod:`repro.core.to_static`).
2. **Generate** — enumerate the minimal cutsets of ``FT̄`` above the
   probabilistic cutoff; they are exactly those of the SD tree, and the
   cutoff is conservative thanks to the worst-case probabilities.  The
   cutsets are read from the minimal-solutions BDD
   (:func:`repro.bdd.ft_bdd.bdd_cutsets`); MOCUS is the fallback when
   the BDD trips its node budget, under a cooperative budget, and when
   resuming a MOCUS checkpoint.
3. **Quantify** — classify every triggering gate once, then build and
   solve the small ``FT_C`` chain of each dynamic cutset, caching
   repeated model shapes; sum the ``p̃(C)`` above the cutoff
   (rare-event approximation).

For comparison baselines, :func:`analyze_exact` solves the full product
chain (the method that does not scale) and :func:`analyze_static`
evaluates the tree with all timing ignored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.classify import classification_report
from repro.core.cutset_model import static_factor
from repro.core.quantify import (
    McsQuantification,
    QuantificationCache,
    quantify_cutset,
    quantify_model,
)
from repro.core.results import AnalysisResult, PerfStats, Timings, served_interval
from repro.core.sdft import SdFaultTree
from repro.core.to_static import to_static
from repro.errors import (
    AnalysisError,
    BddBudgetExceeded,
    BudgetExceededError,
    InvariantViolation,
    NumericalError,
)
from repro.ft.cutsets import CutSetList
from repro.ft.mocus import MocusOptions, MocusResult, mocus
from repro.ft.probability import rare_event_probability
from repro.obs.core import NULL_OBS, Observability
from repro.robust.budget import Budget
from repro.robust.health import HealthLog
from repro.robust.verify import Verifier, resolve_mode

if TYPE_CHECKING:
    from collections.abc import Callable

    from repro.core.classify import ClassificationReport
    from repro.core.cutset_model import CutsetModel
    from repro.ft.tree import FaultTree
    from repro.lint.engine import LintReport
    from repro.perf.cache import SolveCache
    from repro.perf.pool import SolveResult, SolverFarm
    from repro.robust.checkpoint import CheckpointManager

__all__ = [
    "AnalysisOptions",
    "AnalysisReuse",
    "analyze",
    "analyze_curve",
    "analyze_exact",
    "analyze_static",
]


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of the end-to-end analysis.

    ``horizon`` is the mission time ``t`` in hours; ``cutoff`` is the
    probabilistic cutoff ``c*`` applied both during cutset generation
    and to the final quantified list; ``max_partials`` bounds only the
    MOCUS fallback's search (the BDD generator has no partials);
    ``epsilon`` bounds the transient solver's truncation error;
    ``max_chain_states`` guards against cutset chains that explode (a
    modelling smell the user should hear about).
    ``on_oversize`` chooses between failing on an oversized chain
    (``"raise"``) and the interval approximation of the paper's
    Section VIII (``"bounds"`` — the affected cutsets contribute their
    conservative upper bound and the result reports the interval).
    ``lump_chains`` reduces every per-cutset chain by exact ordinary
    lumping before solving (symmetric redundancy collapses).

    Static-engine selection (:mod:`repro.bdd`):

    * ``static_engine`` — how a *static* (trigger-free, no dynamic
      events) model's top probability is served.  ``"auto"`` (default)
      and ``"bdd"`` quantify exactly by compiling the static tree into
      a BDD (module-wise, with automatic ordering selection), falling
      back to cutset aggregation when the node budget trips; ``"mcs"``
      keeps the classical cutset path.  Dynamic models always use the
      cutset path.  The result's ``method`` field labels what was
      served: ``"bdd-exact"``, ``"mcs-rare-event"``, or
      ``"mcs-min-cut-ub"`` (the sound substitute when the rare-event
      sum overshoots 1.0).  The cutset records are produced either way
      — importance measures and per-cutset diagnostics do not change.
    * ``bdd_node_budget`` — node-table cap per BDD compilation scope; a
      compilation that would exceed it is abandoned cleanly
      (:class:`~repro.errors.BddBudgetExceeded`) and the run falls back
      to cutset quantification with a health note.  The same cap gates
      cutset generation: cutsets are read from the minimal-solutions
      BDD of ``FT̄``, and a compilation past the budget falls back to
      MOCUS (health note, ``bdd.budget_trips`` metric; :func:`analyze_curve`
      returns no health log, so a curve falls back without a note).

    ``mocus_probability_overrides`` replaces the probabilities of the
    named events in the static translation before MOCUS runs — the
    paper's "static cutoff" (Section VI: "We use the static cutoff in
    all experiments"): the cutset list is generated against the original
    static probabilities so it stays identical across dynamic
    parameterisations (e.g. phase counts), while the quantification
    still uses the dynamic chains.

    Robustness knobs (:mod:`repro.robust`):

    * ``fault_isolation`` — a failure quantifying one cutset no longer
      aborts the run; the degradation ladder
      (:mod:`repro.robust.ladder`) retries that cutset down
      exact → lumped → Monte-Carlo → conservative bound, widening the
      result into an interval and recording every descent in the
      run-health report.
    * ``wall_seconds`` / ``max_total_states`` / ``budget_cutsets`` — a
      cooperative :class:`~repro.robust.budget.Budget`; running out
      yields a *partial* result whose interval is widened by a
      conservative bound on the unfinished work, never a crash.
    * ``checkpoint_path`` — snapshot MOCUS frontier state and quantified
      records to this file every ``checkpoint_interval_seconds``;
      ``resume=True`` restarts a killed run from the snapshot (a
      fingerprint mismatch raises
      :class:`~repro.errors.CheckpointError`).
    * ``monte_carlo_runs`` / ``monte_carlo_seed`` control the ladder's
      simulation rung (seeded deterministically per cutset).
    * ``mc_target_rel_error`` / ``mc_engine`` tune the simulation
      rung's rare-event controller (:mod:`repro.ctmc.rare`):
      ``mc_engine`` is ``"auto"`` (a crude pilot batch picks between
      crude sampling, failure-biased importance sampling and
      importance splitting), ``"crude"``, ``"is"`` or ``"splitting"``;
      the controller iterates until the 95 % relative half-width drops
      below ``mc_target_rel_error``, ``monte_carlo_runs`` trajectories
      are spent, or the budget expires — the health report then names
      the engine used and the precision actually achieved.
    * ``verify`` — runtime self-verification (:mod:`repro.robust.verify`):
      ``"off"`` (default) does nothing; ``"cheap"`` asserts the invariant
      catalogue (probabilities in range, intervals ordered, per-cutset
      worst-case dominance) at every stage boundary; ``"full"``
      additionally runs the differential cross-checks of
      :mod:`repro.robust.crosscheck` (seeded re-quantification, the BDD
      oracle on small trees, ladder-rung bracketing).  A per-cutset
      violation degrades that cutset conservatively under
      ``fault_isolation`` (with a health event) and raises
      :class:`~repro.errors.InvariantViolation` otherwise; violations at
      stage boundaries always raise.  Verification never changes a
      clean run's records.
    * ``pool_task_timeout_seconds`` — per-task wall deadline on the
      process-pool farm (``jobs > 1``): a task running longer is
      terminated, its cutsets are recovered in the parent through the
      degradation path, and the event is recorded in the health report.

    Parallelism (:mod:`repro.perf`):

    * ``jobs`` — worker processes for the quantification phase.  ``1``
      (the default) keeps the serial in-process loop; ``"auto"`` uses
      one worker per available CPU.  With more than one job the dynamic
      cutsets are grouped by structural model signature, each *unique*
      model is solved exactly once on a process pool
      (largest-estimated-chain first), and the results are folded back
      in deterministic cutset order — the analysis values are identical
      to a serial run, only wall-clock changes.  A task that fails in a
      worker is recovered by re-running its cutsets in the parent
      through the usual degradation path.

    Persistent caching (:mod:`repro.perf.cache`):

    * ``cache_dir`` — directory of the on-disk solve cache.  ``None``
      (the library default) disables persistence entirely; the CLI
      defaults it to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``
      (``--no-cache`` opts out).  Three layers, all keyed by content
      fingerprints plus the value-affecting options: per-unique-model
      chain solves, exact static BDD quantifications, and the full
      record set of a clean run — so re-analysing an unchanged model
      is near-free and an unchanged submodel still reuses its solves.
      Corrupted or version-mismatched entries degrade to cache misses, never
      crashes; cached values flow through the same verification guards
      as fresh ones; nothing is written while fault injection is armed
      or when the run was budgeted, checkpointed, resumed, truncated
      or degraded.  Hit/miss counts ride on the health report and the
      ``cache.*`` metrics.

    Pre-flight linting (:mod:`repro.lint`):

    * ``lint`` — run the static model linter before the pipeline.  A
      model with error-level diagnostics (e.g. a top gate that can
      never fail, or a cutoff guaranteed to empty the cutset list) is
      rejected with :class:`~repro.errors.LintError` *before* any
      translation, MOCUS or quantification work happens; warnings and
      infos ride on :attr:`~repro.core.results.AnalysisResult.lint`,
      appear in the run summary, and are noted in the run-health
      report.  The lint pass gets its own ``lint`` span in the trace.

    Semantic simplification (:mod:`repro.sem`):

    * ``simplify`` — run the BDD-verified rewrite engine over the model
      before translation and analyse the smaller equivalent model.
      Every applied rewrite round is proven equivalent (top scope and
      all trigger-gate scopes) within ``bdd_node_budget`` BDD nodes;
      rounds the proof cannot afford are reverted, so the option can
      shrink the work but never change the answer.  The stage gets its
      own ``simplify`` span, ``sem.*`` metrics, and a health note with
      the gate/event reduction.

    Observability (:mod:`repro.obs`):

    * ``trace_path`` — write a JSONL trace of the run (phase and
      per-solve spans, pool-task spans shipped back from workers, and
      the metric snapshot) to this file; summarise it with
      ``sdft trace FILE``.
    * ``collect_metrics`` — collect the pipeline metrics without
      writing a trace file; the snapshot rides on
      :attr:`~repro.core.results.AnalysisResult.metrics` and its
      highlights are rendered by the run summary.

    Either knob enables collection; both off (the default) costs
    nearly nothing (see ``benchmarks/bench_obs_overhead.py``).  The
    collected quantities never influence analysis values, and the
    analysis-derived metrics are identical across ``jobs`` settings.
    """

    horizon: float = 24.0
    cutoff: float = 1e-15
    epsilon: float = 1e-12
    lint: bool = False
    simplify: bool = False
    max_chain_states: int = 200_000
    max_partials: int = 20_000_000
    on_oversize: str = "raise"
    lump_chains: bool = False
    mocus_probability_overrides: "dict[str, float] | None" = None
    fault_isolation: bool = False
    wall_seconds: float | None = None
    max_total_states: int | None = None
    budget_cutsets: int | None = None
    monte_carlo_runs: int = 4_000
    monte_carlo_seed: int = 0
    mc_target_rel_error: float = 0.10
    mc_engine: str = "auto"
    checkpoint_path: str | None = None
    checkpoint_interval_seconds: float = 30.0
    resume: bool = False
    verify: str = "off"
    jobs: "int | str" = 1
    pool_task_timeout_seconds: float | None = None
    trace_path: str | None = None
    collect_metrics: bool = False
    cache_dir: str | None = None
    static_engine: str = "auto"
    bdd_node_budget: int = 200_000


#: Valid ``AnalysisOptions.static_engine`` values.
_STATIC_ENGINES = ("auto", "bdd", "mcs")


@dataclass
class AnalysisReuse:
    """Work carried between runs of the same pipeline (the session hook).

    :class:`repro.service.session.AnalysisSession` passes one of these
    into :func:`analyze` to (a) inject cutsets it already proved
    equivalent to a fresh MOCUS search and a solve store from the
    previous run, and (b) capture this run's artifacts for the *next*
    incremental step.  ``analyze(sdft)`` without a reuse hook is the
    unchanged one-shot pipeline.

    Injected inputs
    ---------------
    ``translation`` — a pre-computed
    :class:`~repro.core.to_static.StaticTranslation` of *this* model at
    *this* horizon (the session computes it to diff trees; recomputing
    it would redo every worst-case chain solve).
    ``cutsets`` — a pre-computed :class:`MocusResult` substituted for
    the MOCUS stage (the caller vouches it is element-for-element what
    the search would return; see :mod:`repro.service.incremental`).
    ``solves`` — ``signature -> (probability, chain_states)`` entries
    priming the in-memory :class:`QuantificationCache`, so only cutsets
    whose ``FT_C`` content fingerprint changed are re-solved.  Both the
    serial loop and the process-pool path consult the primed store
    before solving.
    ``records`` — ``cutset -> McsQuantification`` records the caller
    proved untouched by the edit (unchanged gate/trigger skeleton, no
    dirty event among the record's ``dependencies``).  They are served
    through the same checked-restore path checkpoint resume uses —
    skipping even the ``FT_C`` model build — and re-validated against
    this run's invariants.
    ``siblings`` — ``cutset -> (signature, record)`` for records the
    edit *did* touch, under the same unchanged skeleton: the signature
    their ``FT_C`` model had in the previous run, and the previous
    record.  Cutsets whose previous models were equal still share one
    model, so only the first of each group is rebuilt and solved; the
    rest are served from its solve (see ``_QuantifyContext.sibling``).

    Captured outputs (filled by :func:`analyze`)
    --------------------------------------------
    ``out_translation`` / ``out_mocus`` / ``out_solves`` /
    ``out_signatures`` — the translation, the cutset result, the full
    solve store and the ``FT_C`` signature of every cutset quantified by
    the run that just finished.  They stay ``None`` when the run was
    served whole from the persistent records cache (nothing new was
    computed).
    """

    translation: "object | None" = None
    cutsets: "MocusResult | None" = None
    solves: "dict[tuple, tuple[float, int]] | None" = None
    records: "dict[frozenset, McsQuantification] | None" = None
    siblings: "dict[frozenset, tuple[tuple, McsQuantification]] | None" = None
    note: str = ""
    out_translation: "object | None" = None
    out_mocus: "MocusResult | None" = None
    out_solves: "dict[tuple, tuple[float, int]] | None" = None
    out_signatures: "dict[frozenset, tuple] | None" = None


def analyze(
    sdft: SdFaultTree,
    options: AnalysisOptions | None = None,
    reuse: "AnalysisReuse | None" = None,
) -> AnalysisResult:
    """Run the full SD analysis and return an :class:`AnalysisResult`.

    With the robustness options of :class:`AnalysisOptions` the pipeline
    survives per-cutset solver failures (degradation ladder), resource
    exhaustion (cooperative budgets → partial results with conservative
    remainder bounds) and process kills (checkpoint/resume); everything
    that deviated from the clean path is enumerated in the result's
    :attr:`~repro.core.results.AnalysisResult.health` report.

    ``reuse`` is the incremental-analysis hook of
    :class:`repro.service.session.AnalysisSession` — see
    :class:`AnalysisReuse`.  Supplying it bypasses the whole-result
    records cache (the point is to run the pipeline and capture its
    artifacts), but never changes any computed value.
    """
    opts = options or AnalysisOptions()
    resolve_mode(opts.verify)
    if opts.static_engine not in _STATIC_ENGINES:
        raise ValueError(
            f"unknown static_engine {opts.static_engine!r}; "
            f"expected one of {_STATIC_ENGINES}"
        )
    obs = Observability.from_options(opts.trace_path, opts.collect_metrics)
    budget = _make_budget(opts, obs)
    health = HealthLog()
    verifier = Verifier(
        opts.verify,
        health=health,
        metrics=obs.metrics if obs.enabled else None,
        # The per-chain truncation error compounds into every quantified
        # value, so the float slack must dominate a coarse epsilon.
        tolerance=max(1e-9, 100.0 * opts.epsilon),
    )
    lint_report = _preflight_lint(sdft, opts, obs, health)
    sdft = _simplify_stage(sdft, opts, obs, health)
    manager, resumed = _open_checkpoint(sdft, opts, health)
    solve_cache = _open_solve_cache(opts)

    with obs.tracer.span(
        "analyze",
        model=getattr(sdft, "name", None) or "",
        horizon=opts.horizon,
        cutoff=opts.cutoff,
        jobs=str(opts.jobs),
    ):
        run_started = time.perf_counter()
        warm = None
        if reuse is None:
            warm = _restore_cached_result(
                sdft, opts, solve_cache, budget, manager, resumed, verifier, health
            )
        if warm is not None:
            records, static_bound, cache, perf, served = warm
            mcs_truncated = False
            mcs_remainder = 0.0
            record_sum = sum(
                r.probability for r in records if r.probability > opts.cutoff
            )
            method = served.get("method", "mcs-rare-event")
            total = float(served.get("total", record_sum))
            bdd_info = served.get("bdd") or {}
            if verifier.enabled:
                with obs.tracer.span("verify", mode=verifier.mode):
                    _verify_restored(
                        records, total, record_sum, method, opts, verifier
                    )
                health.info("verify", verifier.summary())
            timings = Timings(0.0, 0.0, time.perf_counter() - run_started)
        else:
            started = time.perf_counter()
            with obs.tracer.span("translate"):
                if reuse is not None and reuse.translation is not None:
                    translation = reuse.translation
                else:
                    translation = to_static(sdft, opts.horizon)
                mocus_tree = translation.tree
                if opts.mocus_probability_overrides:
                    mocus_tree = mocus_tree.with_probabilities(
                        opts.mocus_probability_overrides
                    )
            translation_seconds = time.perf_counter() - started

            started = time.perf_counter()
            with obs.tracer.span("mocus") as mocus_span:
                if reuse is not None and reuse.cutsets is not None:
                    # The session already produced (and vouches for) the
                    # cutsets of this tree; skip the search entirely.
                    mocus_result, restored_records = reuse.cutsets, {}
                    health.info(
                        "service", reuse.note or "cutsets supplied by session"
                    )
                else:
                    mocus_result, restored_records = _generate_cutsets(
                        mocus_tree, opts, budget, health, manager, resumed, obs
                    )
                    mocus_span.set(
                        engine=mocus_result.engine,
                        bdd_nodes=mocus_result.stats.bdd_nodes,
                    )
                    if obs.enabled:
                        obs.metrics.count(f"cutsets.engine.{mocus_result.engine}")
                        if mocus_result.engine == "bdd":
                            obs.metrics.observe(
                                "cutsets.bdd_nodes", mocus_result.stats.bdd_nodes
                            )
                mocus_span.set(
                    cutsets=len(mocus_result.cutsets),
                    truncated=mocus_result.truncated,
                )
            if mocus_result.truncated:
                health.budget(
                    "mocus",
                    f"cutset generation truncated after "
                    f"{len(mocus_result.cutsets)} cutsets; un-enumerated mass "
                    f"bounded by {mocus_result.remainder_bound:.3e}",
                )
            mcs_seconds = time.perf_counter() - started

            started = time.perf_counter()
            with obs.tracer.span("quantify") as quantify_span:
                records, cache, perf = _quantify_cutsets(
                    sdft,
                    translation.tree,
                    mocus_result,
                    opts,
                    budget,
                    health,
                    manager,
                    restored_records,
                    obs,
                    verifier,
                    solve_cache,
                    primed=reuse.solves if reuse is not None else None,
                    primed_records=(
                        reuse.records if reuse is not None else None
                    ),
                    siblings=reuse.siblings if reuse is not None else None,
                )
                quantify_span.set(
                    records=len(records),
                    dedup_hits=cache.hits,
                    dedup_misses=cache.misses,
                )
            record_sum = sum(
                r.probability for r in records if r.probability > opts.cutoff
            )
            total, method, bdd_info = _select_served_total(
                sdft,
                translation.tree,
                records,
                record_sum,
                opts,
                health,
                obs,
                solve_cache,
            )
            quantification_seconds = time.perf_counter() - started

            if verifier.enabled:
                _final_verification(
                    sdft,
                    mocus_tree,
                    mocus_result,
                    records,
                    total,
                    record_sum,
                    method,
                    opts,
                    verifier,
                    health,
                    obs,
                )
                health.info("verify", verifier.summary())

            static_bound, static_estimator = (
                mocus_result.cutsets.sound_estimate()
            )
            if static_estimator != "rare-event":
                health.info(
                    "quantify",
                    f"static worst-case rare-event sum overshoots 1.0; "
                    f"min-cut upper bound {static_bound:.6e} reported",
                )
            # The quantified total can exceed the static MCUB (the
            # records sum first-order); keep the bound a bound.
            static_bound = max(static_bound, total)
            mcs_truncated = mocus_result.truncated
            mcs_remainder = mocus_result.remainder_bound
            timings = Timings(
                translation_seconds, mcs_seconds, quantification_seconds
            )
            _store_cached_result(
                sdft,
                opts,
                solve_cache,
                budget,
                manager,
                resumed,
                mcs_truncated,
                records,
                static_bound,
                cache,
                perf,
                health,
                {
                    "method": method,
                    "total": total,
                    "bdd": bdd_info,
                },
            )
            if reuse is not None:
                reuse.out_translation = translation
                reuse.out_mocus = mocus_result
                reuse.out_solves = dict(cache._store)
                reuse.out_signatures = dict(cache.by_cutset)

    if solve_cache is not None:
        health.info("cache", solve_cache.summary())
        if obs.enabled:
            for name, value in solve_cache.stats().items():
                if value:
                    obs.metrics.count(f"cache.{name}", value)
        solve_cache.close()

    if obs.enabled:
        # The dedup counters come from the shared cache totals (not the
        # per-lookup call sites), which is what keeps them identical
        # across jobs=1/N — the same property PerfStats relies on.
        obs.metrics.count("quantify.dedup_hits", cache.hits)
        obs.metrics.count("quantify.dedup_misses", cache.misses)
        obs.metrics.count("quantify.model_builds", cache.model_builds)
        obs.metrics.count("quantify.model_reuses", cache.model_reuses)
    metrics_snapshot = obs.metrics.snapshot() if obs.enabled else None
    if opts.trace_path:
        from repro.obs.export import write_trace

        n_lines = write_trace(
            opts.trace_path,
            obs.tracer.records(),
            metrics_snapshot,
            attrs={
                "model": getattr(sdft, "name", None) or "",
                "horizon": opts.horizon,
                "cutoff": opts.cutoff,
                "jobs": str(opts.jobs),
            },
        )
        health.info(
            "obs", f"trace written to {opts.trace_path} ({n_lines} lines)"
        )

    if manager is not None:
        manager.clear()

    return AnalysisResult(
        failure_probability=total,
        static_bound=static_bound,
        horizon=opts.horizon,
        cutoff=opts.cutoff,
        records=tuple(records),
        timings=timings,
        classification=classification_report(sdft),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        health=health.freeze(),
        mcs_truncated=mcs_truncated,
        mcs_remainder_bound=mcs_remainder,
        perf=perf,
        metrics=metrics_snapshot,
        lint=lint_report,
        method=method,
        rare_event_sum=record_sum,
        bdd_nodes=int(bdd_info.get("nodes", 0)),
        bdd_ordering=str(bdd_info.get("ordering", "")),
        bdd_modules=int(bdd_info.get("modules", 0)),
    )


# ----------------------------------------------------------------------
# Resilient-pipeline helpers
# ----------------------------------------------------------------------


def _preflight_lint(
    sdft: SdFaultTree,
    opts: AnalysisOptions,
    obs: Observability,
    health: HealthLog,
) -> "LintReport | None":
    """Run the model linter before the pipeline (``opts.lint``).

    Error-level findings reject the model with
    :class:`~repro.errors.LintError` before translate/MOCUS/quantify do
    any work — the trace (when requested) is still written, containing
    the ``lint`` span and *no* phase spans.  Warnings become run-health
    notes and the report is returned to ride on the result.
    """
    if not opts.lint:
        return None
    from repro.errors import LintError
    from repro.lint import LintConfig
    from repro.lint import lint as run_lint

    with obs.tracer.span(
        "lint", model=getattr(sdft, "name", None) or ""
    ) as lint_span:
        report = run_lint(
            sdft, LintConfig(horizon=opts.horizon, cutoff=opts.cutoff)
        )
        counts = report.counts()
        lint_span.set(
            errors=counts["error"],
            warnings=counts["warning"],
            infos=counts["info"],
        )
    for finding in report.warnings:
        health.info(
            "lint", f"{finding.code} {finding.node}: {finding.message}"
        )
    if report.has_errors:
        if opts.trace_path:
            from repro.obs.export import write_trace

            write_trace(
                opts.trace_path,
                obs.tracer.records(),
                obs.metrics.snapshot() if obs.enabled else None,
                attrs={
                    "model": getattr(sdft, "name", None) or "",
                    "horizon": opts.horizon,
                    "cutoff": opts.cutoff,
                    "rejected_by_lint": True,
                },
            )
        details = "; ".join(
            f"{d.code} {d.node}: {d.message}" for d in report.errors
        )
        raise LintError(
            f"model rejected by lint with {len(report.errors)} error-level "
            f"diagnostic(s): {details}",
            report=report,
        )
    return report


def _is_static(sdft: SdFaultTree) -> bool:
    """Whether the model is a plain static tree (no chains, no triggers)."""
    return not sdft.dynamic_events and not sdft.triggers


def _select_served_total(
    sdft: SdFaultTree,
    static_tree: "FaultTree",
    records: "list[McsQuantification]",
    record_sum: float,
    opts: AnalysisOptions,
    health: HealthLog,
    obs: Observability,
    solve_cache: "SolveCache | None",
) -> tuple[float, str, dict]:
    """The served top probability, its method label, and BDD stats.

    The static-engine selection of the tentpole: a static model under
    ``static_engine`` "auto" or "bdd" quantifies exactly via the
    module-wise BDD compilation of :mod:`repro.bdd.quantify`
    (consulting the persistent bdd cache layer first); the node budget
    tripping falls back — with a health note — to the cutset path.  The
    cutset path serves the rare-event record sum while it is a
    probability and the min-cut upper bound over the record values once
    the sum overshoots 1.0, labelling which estimator answered.
    """
    bdd_info: dict = {}
    if opts.static_engine != "mcs" and _is_static(sdft):
        try:
            quantification = _bdd_quantification(
                static_tree, opts, health, obs, solve_cache
            )
        except BddBudgetExceeded as error:
            health.info(
                "bdd",
                f"static BDD engine abandoned ({error}); falling back to "
                f"cutset quantification",
            )
            if obs.enabled:
                obs.metrics.count("bdd.budget_trips")
        else:
            return quantification
    if record_sum > 1.0:
        mcub = _record_min_cut_upper_bound(records, opts.cutoff)
        health.info(
            "quantify",
            f"rare-event sum {record_sum:.6e} overshoots 1.0; serving the "
            f"min-cut upper bound {mcub:.6e} instead (method mcs-min-cut-ub)",
        )
        return mcub, "mcs-min-cut-ub", bdd_info
    return record_sum, "mcs-rare-event", bdd_info


def _bdd_quantification(
    static_tree: "FaultTree",
    opts: AnalysisOptions,
    health: HealthLog,
    obs: Observability,
    solve_cache: "SolveCache | None",
) -> tuple[float, str, dict]:
    """One exact BDD quantification (cache-aware), as a served total."""
    from repro.bdd.quantify import quantify_static_tree
    from repro.robust import faults

    digest = None
    if solve_cache is not None:
        from repro.perf.cache import tree_digest

        digest = tree_digest(static_tree)
        if not faults.any_armed():
            warm = solve_cache.get_bdd(digest, opts.bdd_node_budget, "auto")
            if warm is not None:
                probability, node_count, ordering, n_modules = warm
                health.info(
                    "bdd",
                    f"exact static quantification restored from cache "
                    f"({node_count} nodes, order {ordering})",
                )
                info = {
                    "nodes": node_count,
                    "ordering": ordering,
                    "modules": n_modules,
                }
                _observe_bdd(obs, node_count, ordering)
                return probability, "bdd-exact", info
    with obs.tracer.span("bdd", events=len(static_tree.events)) as span:
        quantification = quantify_static_tree(
            static_tree, node_budget=opts.bdd_node_budget
        )
        span.set(
            nodes=quantification.node_count,
            ordering=quantification.ordering,
            modules=quantification.n_modules,
        )
    if digest is not None:
        solve_cache.put_bdd(
            digest,
            opts.bdd_node_budget,
            "auto",
            quantification.probability,
            quantification.node_count,
            quantification.ordering,
            quantification.n_modules,
        )
    health.info(
        "bdd",
        f"static engine: exact BDD quantification "
        f"({quantification.node_count} nodes, order "
        f"{quantification.ordering}, {quantification.n_modules} modules)",
    )
    _observe_bdd(obs, quantification.node_count, quantification.ordering)
    info = {
        "nodes": quantification.node_count,
        "ordering": quantification.ordering,
        "modules": quantification.n_modules,
    }
    return quantification.probability, "bdd-exact", info


def _observe_bdd(obs: Observability, node_count: int, ordering: str) -> None:
    """Record the ``bdd.*`` metrics of one exact quantification."""
    if obs.enabled:
        obs.metrics.observe("bdd.nodes", node_count)
        obs.metrics.count(f"bdd.order.{ordering}")


def _record_min_cut_upper_bound(
    records: "list[McsQuantification]", cutoff: float
) -> float:
    """The MCUB ``1 - prod(1 - p̃(C))`` over the quantified records.

    The sound substitute served when the rare-event sum overshoots 1.0:
    still an upper bound for coherent trees (each ``p̃(C)`` is the
    probability of *some* failing scenario set, and the product bounds
    the probability that none occurs as if they were independent), and
    by construction never above 1.  Uses ``log1p`` to stay accurate when
    the per-record probabilities are small but numerous.
    """
    import math

    log_complement = 0.0
    for record in records:
        p = record.probability
        if p <= cutoff:
            continue
        if p >= 1.0:
            return 1.0
        log_complement += math.log1p(-p)
    return -math.expm1(log_complement)


def _final_verification(
    sdft: SdFaultTree,
    mocus_tree: "FaultTree",
    mocus_result: MocusResult,
    records: "list[McsQuantification]",
    total: float,
    record_sum: float,
    method: str,
    opts: AnalysisOptions,
    verifier: Verifier,
    health: HealthLog,
    obs: Observability,
) -> None:
    """End-of-quantification invariant checks (P1/P3 at run scope).

    The *served* total must be a genuine probability (P1 now rejects any
    value above 1.0 — the rare-event overshoot can no longer be served);
    the raw record sum is checked only for finiteness/sign, since it
    legitimately exceeds one.  The interval check mirrors
    :func:`repro.core.results.served_interval` so the pipeline verifies
    exactly the bracket it later reports.  In ``full`` mode the
    differential cross-checks run too.  Raises
    :class:`~repro.errors.InvariantViolation` on failure: a run-scope
    violation means the whole result is suspect, so no degradation path
    applies.
    """
    with obs.tracer.span("verify", mode=verifier.mode):
        verifier.check_value(
            mocus_result.remainder_bound, "MOCUS remainder bound"
        )
        verifier.check_value(record_sum, "rare-event record sum")
        verifier.check_probability(
            total, f"served failure probability ({method})"
        )
        lower, upper = served_interval(
            records, total, method, opts.cutoff, mocus_result.remainder_bound
        )
        verifier.check_interval(
            lower,
            total,
            upper,
            "failure probability interval",
        )
        if verifier.full:
            from repro.robust.crosscheck import run_crosschecks

            run_crosschecks(
                sdft,
                mocus_tree,
                mocus_result,
                records,
                opts,
                health,
                metrics=obs.metrics if obs.enabled else None,
            )


def _make_budget(
    opts: AnalysisOptions, obs: Observability | None = None
) -> "Budget | None":
    """A cooperative budget, or ``None`` when every axis is unlimited."""
    if (
        opts.wall_seconds is None
        and opts.max_total_states is None
        and opts.budget_cutsets is None
    ):
        return None
    return Budget(
        wall_seconds=opts.wall_seconds,
        max_total_states=opts.max_total_states,
        max_cutsets=opts.budget_cutsets,
        metrics=obs.metrics if obs is not None else None,
    )


def _open_checkpoint(
    sdft: SdFaultTree, opts: AnalysisOptions, health: HealthLog
) -> "tuple[CheckpointManager | None, dict | None]":
    """The run's checkpoint manager and, when resuming, its snapshot."""
    if not opts.checkpoint_path:
        return None, None
    from repro.robust.checkpoint import CheckpointManager, model_fingerprint

    manager = CheckpointManager(
        opts.checkpoint_path,
        model_fingerprint(sdft, opts.horizon, opts.cutoff),
        opts.checkpoint_interval_seconds,
    )
    payload = None
    if opts.resume:
        payload = manager.load()
        if payload is not None:
            health.info(
                "checkpoint",
                f"resumed from {opts.checkpoint_path} "
                f"(phase {payload['phase']!r})",
            )
    return manager, payload


# ----------------------------------------------------------------------
# Persistent-cache helpers (repro.perf.cache)
# ----------------------------------------------------------------------


def _open_solve_cache(opts: AnalysisOptions) -> "SolveCache | None":
    """The run's :class:`~repro.perf.cache.SolveCache`, or ``None``."""
    if not opts.cache_dir:
        return None
    from repro.perf.cache import SolveCache

    return SolveCache(opts.cache_dir)


def _simplify_stage(
    sdft: SdFaultTree,
    opts: AnalysisOptions,
    obs: Observability,
    health: HealthLog,
) -> SdFaultTree:
    """Shrink the model through the verified rewrite engine (``opts.simplify``).

    Runs after the pre-flight lint (findings should name the user's
    nodes, not the dieted survivors) and before the checkpoint opens, so
    checkpoints and the solve cache fingerprint the model actually
    analysed.  Soundness rests on :func:`repro.sem.simplify`'s per-round
    BDD proofs: an unverifiable round is reverted inside the engine, so
    whatever comes back is equivalent to the input on the top scope and
    every trigger-gate scope.
    """
    if not opts.simplify:
        return sdft
    from repro.sem import simplify as run_simplify

    with obs.tracer.span(
        "simplify", model=getattr(sdft, "name", None) or ""
    ) as span:
        result = run_simplify(sdft, node_budget=opts.bdd_node_budget)
        span.set(
            rewrites=len(result.rewrites),
            gates_before=result.gates_before,
            gates_after=result.gates_after,
            verified_scopes=result.verified_scopes,
            budget_hit=result.budget_hit,
        )
    if obs.enabled:
        obs.metrics.count("sem.rewrites", len(result.rewrites))
        obs.metrics.count("sem.removed_gates", result.removed_gates)
        obs.metrics.count("sem.removed_events", result.removed_events)
        obs.metrics.count("sem.verified_scopes", result.verified_scopes)
        if result.budget_hit:
            obs.metrics.count("sem.budget_trips")
    if result.changed:
        health.info(
            "simplify",
            f"verified diet: {result.gates_before} -> {result.gates_after} "
            f"gates, {result.events_before} -> {result.events_after} events "
            f"({len(result.rewrites)} rewrites, {result.verified_scopes} "
            f"scopes BDD-verified)",
        )
    if result.budget_hit:
        health.info(
            "simplify",
            "BDD node budget tripped during verification; unverified "
            "rewrites were discarded",
        )
    model = result.model
    assert isinstance(model, SdFaultTree)
    return model


def _records_options_key(opts: AnalysisOptions) -> tuple:
    """Everything value-affecting beyond the model/horizon/cutoff.

    ``jobs``, tracing, verification mode and checkpoint knobs are
    deliberately absent: the determinism contract says they never change
    analysis values, so a result computed under any of them answers all
    of them.  (Budgeted, checkpointed or resumed runs are not *stored*
    at all — see :func:`_store_cached_result`.)
    """
    overrides = None
    if opts.mocus_probability_overrides:
        overrides = tuple(
            sorted(
                (name, repr(value))
                for name, value in opts.mocus_probability_overrides.items()
            )
        )
    return (
        repr(opts.epsilon),
        opts.max_chain_states,
        opts.max_partials,
        opts.on_oversize,
        opts.lump_chains,
        overrides,
        opts.fault_isolation,
        opts.monte_carlo_runs,
        opts.monte_carlo_seed,
        repr(opts.mc_target_rel_error),
        opts.mc_engine,
        opts.static_engine,
        opts.bdd_node_budget,
        opts.simplify,
    )


def _restore_cached_result(
    sdft: SdFaultTree,
    opts: AnalysisOptions,
    solve_cache: "SolveCache | None",
    budget: "Budget | None",
    manager: "CheckpointManager | None",
    resumed: dict | None,
    verifier: Verifier,
    health: HealthLog,
) -> (
    "tuple[list[McsQuantification], float, QuantificationCache, PerfStats, dict]"
    " | None"
):
    """Serve the whole run from the records layer, when safe.

    Only unconstrained runs qualify: a budget, a checkpoint manager or
    a resume snapshot each carry semantics (partial results, phase
    bookkeeping) a restored record list cannot honour, ``full``
    verification needs the live pipeline for its differential
    cross-checks, and an armed fault campaign must exercise the real
    stages.  Returns ``(records, static_bound, cache, perf, served)`` or
    ``None`` — ``served`` carries the stored method label, served total
    and BDD stats of the original run.
    """
    from repro.robust import faults

    if (
        solve_cache is None
        or budget is not None
        or manager is not None
        or resumed is not None
        or opts.verify == "full"
        or faults.any_armed()
    ):
        return None
    from repro.perf.pool import resolve_jobs
    from repro.robust.checkpoint import model_fingerprint, record_from_dict

    fingerprint = model_fingerprint(sdft, opts.horizon, opts.cutoff)
    payload = solve_cache.get_records(fingerprint, _records_options_key(opts))
    if payload is None:
        return None
    try:
        records = [record_from_dict(raw) for raw in payload["records"]]
        static_bound = float(payload["static_bound"])
        dedup = payload.get("dedup", {})
        cache = QuantificationCache()
        cache.hits = int(dedup.get("hits", 0))
        cache.misses = int(dedup.get("misses", 0))
        perf = PerfStats(
            jobs=resolve_jobs(opts.jobs),
            dynamic_solves=int(dedup.get("dynamic_solves", 0)),
            unique_models_solved=int(dedup.get("unique_models_solved", 0)),
            dedup_ratio=float(dedup.get("dedup_ratio", 0.0)),
            worker_faults=0,
        )
        method = str(payload.get("method", "mcs-rare-event"))
        if method not in ("bdd-exact", "mcs-rare-event", "mcs-min-cut-ub"):
            raise ValueError(f"unknown stored method {method!r}")
        served = {
            "method": method,
            "bdd": dict(payload.get("bdd") or {}),
        }
        if "total" in payload:
            served["total"] = float(payload["total"])
    except (KeyError, TypeError, ValueError):
        # A malformed payload is a miss, never a failed analysis.
        solve_cache.errors += 1
        return None
    health.info(
        "cache",
        f"full-result hit: {len(records)} records restored "
        f"(translate/mocus/quantify skipped)",
    )
    return records, static_bound, cache, perf, served


def _verify_restored(
    records: "list[McsQuantification]",
    total: float,
    record_sum: float,
    method: str,
    opts: AnalysisOptions,
    verifier: Verifier,
) -> None:
    """Run-scope invariants (P1/P3) over a cache-restored record set.

    Restored runs were stored clean and non-truncated, so the remainder
    bound is zero and the per-record dominance check already passed when
    the records were produced; what must hold *now* is that the restored
    numbers still form a sound bracket — a rotted payload fails here.
    """
    verifier.check_value(record_sum, "rare-event record sum")
    verifier.check_probability(
        total, f"served failure probability ({method})"
    )
    lower, upper = served_interval(records, total, method, opts.cutoff, 0.0)
    verifier.check_interval(lower, total, upper, "failure probability interval")


def _store_cached_result(
    sdft: SdFaultTree,
    opts: AnalysisOptions,
    solve_cache: "SolveCache | None",
    budget: "Budget | None",
    manager: "CheckpointManager | None",
    resumed: dict | None,
    truncated: bool,
    records: "list[McsQuantification]",
    static_bound: float,
    cache: QuantificationCache,
    perf: "PerfStats",
    health: HealthLog,
    served: dict,
) -> None:
    """Persist a clean run's full record set to the records layer.

    Only a pristine run is stored: unbudgeted, uncheckpointed, not
    resumed, not truncated, and with a clean health report (no
    degradations, retries or warnings — a degraded record set would be
    served to later runs that might not degrade at all).  Fault-armed
    processes never write (enforced again inside the cache).
    """
    if (
        solve_cache is None
        or budget is not None
        or manager is not None
        or resumed is not None
        or truncated
        or not health.freeze().is_clean
    ):
        return
    from repro.robust.checkpoint import model_fingerprint, record_to_dict

    fingerprint = model_fingerprint(sdft, opts.horizon, opts.cutoff)
    solve_cache.put_records(
        fingerprint,
        _records_options_key(opts),
        {
            "records": [record_to_dict(r) for r in records],
            "static_bound": static_bound,
            "dedup": {
                "hits": cache.hits,
                "misses": cache.misses,
                "dynamic_solves": perf.dynamic_solves,
                "unique_models_solved": perf.unique_models_solved,
                "dedup_ratio": perf.dedup_ratio,
            },
            **served,
        },
    )


def _generate_cutsets(
    mocus_tree: "FaultTree",
    opts: AnalysisOptions,
    budget: "Budget | None",
    health: HealthLog,
    manager: "CheckpointManager | None",
    resumed: dict | None,
    obs: Observability = NULL_OBS,
) -> "tuple[MocusResult, dict]":
    """Run (or restore) cutset generation, surviving budget exhaustion.

    Returns the cutset result plus the quantification records restored
    from a quantify-phase checkpoint (empty when not resuming).

    The BDD generator (:func:`repro.bdd.ft_bdd.bdd_cutsets`) runs first.
    MOCUS runs instead when a cooperative ``budget`` is set or a
    ``"mocus"``-phase checkpoint is resumed — its frontier, salvage and
    remainder bound are what those paths need — and as the fallback
    when the BDD trips ``bdd_node_budget``.
    """
    if resumed is not None and resumed["phase"] == "quantify":
        from repro.robust.checkpoint import record_from_dict

        state = resumed["state"]
        probabilities = {
            name: event.probability for name, event in mocus_tree.events.items()
        }
        cutsets = CutSetList.from_cutsets(
            [frozenset(names) for names in state["cutsets"]],
            probabilities,
            minimal=True,
        )
        restored = {
            record.cutset: record
            for record in map(record_from_dict, state["records"])
        }
        result = MocusResult(
            cutsets,
            truncated=state.get("mcs_truncated", False),
            remainder_bound=state.get("mcs_remainder_bound", 0.0),
            engine="checkpoint",
        )
        return result, restored

    mocus_resume = None
    if resumed is not None and resumed["phase"] == "mocus":
        mocus_resume = resumed["state"]["mocus"]
    search = MocusOptions(cutoff=opts.cutoff, max_partials=opts.max_partials)
    if budget is None and mocus_resume is None:
        from repro.bdd.ft_bdd import bdd_cutsets

        try:
            return bdd_cutsets(mocus_tree, search, opts.bdd_node_budget), {}
        except BddBudgetExceeded as error:
            health.info(
                "bdd",
                f"BDD cutset generation abandoned ({error}); falling back "
                f"to MOCUS",
            )
            if obs.enabled:
                obs.metrics.count("bdd.budget_trips")
    on_progress = None
    if manager is not None:
        on_progress = lambda build: manager.maybe_save(  # noqa: E731
            "mocus", lambda: {"mocus": build()}
        )
    try:
        result = mocus(
            mocus_tree,
            search,
            budget=budget,
            on_progress=on_progress,
            resume=mocus_resume,
            metrics=obs.metrics if obs.enabled else None,
        )
    except BudgetExceededError as error:
        if error.partial is None:
            raise
        result = error.partial.result
        # Persist the frontier: a resumed run with a fresh budget can
        # continue the search instead of redoing it.
        if manager is not None:
            manager.save("mocus", {"mocus": error.partial.frontier})
    return result, {}


def _quantify_cutsets(
    sdft: SdFaultTree,
    translation_tree: "FaultTree",
    mocus_result: MocusResult,
    opts: AnalysisOptions,
    budget: "Budget | None",
    health: HealthLog,
    manager: "CheckpointManager | None",
    restored: dict,
    obs: Observability = NULL_OBS,
    verifier: Verifier | None = None,
    solve_cache: "SolveCache | None" = None,
    primed: "dict[tuple, tuple[float, int]] | None" = None,
    primed_records: "dict[frozenset, McsQuantification] | None" = None,
    siblings: "dict[frozenset, tuple[tuple, McsQuantification]] | None" = None,
) -> "tuple[list[McsQuantification], bool]":
    """Quantify every cutset with isolation, budgets and checkpoints.

    ``opts.jobs`` selects the execution strategy: the serial in-process
    loop (``1``), or the dedup + process-pool farm of :mod:`repro.perf`
    — both produce identical records, totals and health events for the
    same analysis.

    ``primed`` seeds the in-memory cache with a previous run's solves
    (signature-keyed, so entries for changed ``FT_C`` models can never
    be hit); only changed models are re-solved.  ``primed_records``
    serves whole records the caller proved untouched by an edit through
    the same checked-restore path a checkpoint resume uses (checkpoint
    restores win on conflict — they belong to *this* run's frame).
    ``siblings`` lets edited cutsets share the solve of an earlier
    cutset whose previous ``FT_C`` model was the same (plain path only:
    the degradation ladder keeps its per-cutset accounting).
    """
    from repro.perf.pool import resolve_jobs

    n_jobs = resolve_jobs(opts.jobs)
    cache = QuantificationCache()
    cache.persistent = solve_cache
    if primed:
        cache._store.update(primed)
    if primed_records:
        restored = {**primed_records, **restored} if restored else primed_records
    ctx = _QuantifyContext(
        sdft,
        translation_tree,
        opts,
        classification_report(sdft).by_gate,
        cache,
        budget,
        health,
        obs=obs,
        verifier=verifier if verifier is not None else Verifier(),
        siblings=siblings if siblings and not opts.fault_isolation else {},
    )
    records: list[McsQuantification] = []
    cutset_list = list(mocus_result.cutsets)

    def state() -> dict:
        from repro.robust.checkpoint import record_to_dict

        return {
            "cutsets": [sorted(c) for c in cutset_list],
            "records": [record_to_dict(r) for r in records],
            "mcs_truncated": mocus_result.truncated,
            "mcs_remainder_bound": mocus_result.remainder_bound,
        }

    if manager is not None:
        # Phase transition: from here on the cutset list is fixed.
        manager.save("quantify", state())

    worker_faults = 0
    if n_jobs > 1:
        worker_faults = _quantify_parallel(
            ctx, cutset_list, records, restored, manager, state, n_jobs
        )
    else:
        for cutset in cutset_list:
            reused = restored.get(cutset)
            if reused is not None:
                records.append(ctx.checked(reused))
                continue
            records.append(ctx.quantify(cutset))
            if manager is not None:
                manager.maybe_save("quantify", state)

    cache = ctx.cache
    dynamic_solves = cache.hits + cache.misses
    perf = PerfStats(
        jobs=n_jobs,
        dynamic_solves=dynamic_solves,
        unique_models_solved=cache.misses,
        dedup_ratio=cache.hits / dynamic_solves if dynamic_solves else 0.0,
        worker_faults=worker_faults,
    )
    return records, cache, perf


@dataclass
class _QuantifyContext:
    """Shared state and the per-cutset policy of the quantification phase.

    :meth:`quantify` is the exact serial behaviour — budget gate, then
    the (optionally ladder-protected) solve, converting failures into
    health events and conservative records.  The parallel fold reuses it
    verbatim for deferred and worker-failed cutsets, which is what keeps
    serial and parallel runs bit-identical in records and health.
    """

    sdft: SdFaultTree
    translation_tree: object
    opts: AnalysisOptions
    classes: dict
    cache: QuantificationCache
    budget: "Budget | None"
    health: HealthLog
    obs: object = NULL_OBS
    verifier: Verifier = field(default_factory=Verifier)
    out_of_budget: bool = False
    siblings: dict = field(default_factory=dict)
    #: Previous ``FT_C`` signature -> this run's, learnt from the first
    #: edited cutset of each group quantified the full way.
    renamed: dict = field(default_factory=dict)

    def quantify(self, cutset: frozenset) -> McsQuantification:
        """One cutset through the full serial path (gate, solve, recover)."""
        gated = self._budget_gate(cutset)
        if gated is not None:
            return gated
        sibling = self.sibling(cutset)
        if sibling is not None:
            return self.checked(sibling)
        try:
            record = self.checked(
                _quantify_one(
                    self.sdft,
                    cutset,
                    self.opts,
                    self.classes,
                    self.cache,
                    self.budget,
                    self.health,
                    self.obs,
                )
            )
            hint = self.siblings.get(cutset)
            if hint is not None and cutset in self.cache.by_cutset:
                self.renamed.setdefault(hint[0], self.cache.by_cutset[cutset])
            return record
        except BudgetExceededError as error:
            self.health.budget("quantify", str(error), cutset=cutset)
            self.out_of_budget = True
            return self._skipped(cutset)
        except (NumericalError, AnalysisError) as error:
            if not self.opts.fault_isolation:
                raise
            self.health.degradation(
                "quantify",
                f"every ladder rung failed ({error}); static worst-case "
                f"bound substituted",
                cutset=cutset,
                rung="skipped",
            )
            return self._skipped(cutset)

    def sibling(self, cutset: frozenset) -> McsQuantification | None:
        """An edited cutset served from an earlier cutset's solve.

        With the gate/trigger skeleton unchanged, the structure of
        ``FT_C`` is a function of the cutset alone and its contents are
        looked up by event name, so two cutsets whose models had the
        same signature before the edit have the same model after it.
        Once the first of them has been rebuilt and solved, the others
        get exactly the record the cache hit of a cold run would
        give them: the shared solve times their own
        :func:`~repro.core.cutset_model.static_factor`, with the
        structural counters and dependencies of their previous record.
        """
        hint = self.siblings.get(cutset)
        if hint is None:
            return None
        signature, previous = hint
        key = self.renamed.get(signature)
        if key is None:
            return None
        found = self.cache.get(key)
        if found is None:
            return None
        probability, chain_states = found
        self.cache.by_cutset[cutset] = key
        return McsQuantification(
            cutset,
            probability * static_factor(self.sdft, cutset),
            True,
            previous.n_dynamic_in_cutset,
            previous.n_dynamic_in_model,
            previous.n_added_dynamic,
            chain_states,
            0.0,
            cache_hit=True,
            dependencies=previous.dependencies,
        )

    def checked(self, record: McsQuantification) -> McsQuantification:
        """Apply the per-record invariants (``opts.verify``) to a record.

        A clean record (or any record with verification off) passes
        through untouched.  A violating record either raises
        :class:`~repro.errors.InvariantViolation` or — under fault
        isolation — is replaced by the conservative skipped record, with
        a health event naming the violated invariant.  Skipped records
        are exempt: they *are* the conservative substitute.
        """
        if not self.verifier.enabled or record.rung == "skipped":
            return record
        violation = self.verifier.record_violation(
            record, _worst_case_probability(self.translation_tree, record.cutset)
        )
        if violation is None:
            return record
        if not self.opts.fault_isolation:
            raise InvariantViolation(violation)
        self.health.degradation(
            "verify",
            f"invariant violation: {violation}; static worst-case bound "
            f"substituted",
            cutset=record.cutset,
            rung="skipped",
        )
        return self._skipped(record.cutset)

    def fold_direct(self, model: "CutsetModel") -> McsQuantification:
        """A static or trivially-zero cutset model (no chain solve)."""
        gated = self._budget_gate(model.cutset)
        if gated is not None:
            return gated
        return self.checked(quantify_model(model, self.opts.horizon))

    def fold_solved(
        self, model: "CutsetModel", key: tuple, result: "SolveResult"
    ) -> McsQuantification:
        """Fold one pool-solved unique value onto one member cutset.

        Drives the shared cache exactly like the serial loop would: the
        group's first member in cutset order records the miss (and is
        charged to the state budget), every later member is a hit.
        """
        gated = self._budget_gate(model.cutset)
        if gated is not None:
            return gated
        found = self.cache.get(key)
        if found is not None:
            probability, chain_states = found
            return self.checked(
                McsQuantification(
                    model.cutset,
                    probability * model.static_factor,
                    True,
                    model.n_dynamic_in_cutset,
                    model.n_dynamic_in_model,
                    model.n_added_dynamic,
                    chain_states,
                    0.0,
                    cache_hit=True,
                    dependencies=model.dependencies,
                )
            )
        violation = self.verifier.value_violation(
            result.probability,
            f"pool-solved probability for {'+'.join(sorted(model.cutset))}",
        )
        if violation is not None:
            # The pool shipped an impossible value.  Treat it like a
            # failed task — do not poison the shared cache; recover this
            # member in the parent through the standard path.
            self.health.warning(
                "verify",
                f"{violation}; re-solving in the parent",
                cutset=model.cutset,
            )
            return self.quantify(model.cutset)
        if self.budget is not None:
            limit = self.budget.max_total_states
            if (
                limit is not None
                and self.budget.states_charged + result.chain_states > limit
            ):
                # The state budget is about to trip.  Route this member
                # through the serial per-cutset path instead, so the
                # charge, the failure and any ladder descent happen with
                # exactly the serial loop's accounting and health events.
                return self.quantify(model.cutset)
            self.budget.charge_states(result.chain_states, "quantify")
        self.cache.put(key, result.probability, result.chain_states)
        if self.cache.persistent is not None and result.solve_seconds > 0.0:
            # Write a *pool-solved* value through to disk; cache-served
            # values (solve_seconds == 0) are already there.
            self.cache.persistent.put_solve(
                key,
                self.opts.epsilon,
                self.opts.max_chain_states,
                self.opts.lump_chains,
                result.probability,
                result.chain_states,
            )
        return self.checked(
            McsQuantification(
                model.cutset,
                result.probability * model.static_factor,
                True,
                model.n_dynamic_in_cutset,
                model.n_dynamic_in_model,
                model.n_added_dynamic,
                result.chain_states,
                result.solve_seconds,
                rung="lumped" if self.opts.lump_chains else "exact",
                dependencies=model.dependencies,
            )
        )

    def _budget_gate(self, cutset: frozenset) -> "McsQuantification | None":
        """The skipped record once the wall-clock budget has expired."""
        if (
            not self.out_of_budget
            and self.budget is not None
            and self.budget.expired()
        ):
            self.health.budget(
                "quantify",
                "wall-clock budget exhausted; remaining cutsets carry "
                "their conservative static worst-case bound",
            )
            self.out_of_budget = True
        if self.out_of_budget:
            return self._skipped(cutset)
        return None

    def _skipped(self, cutset: frozenset) -> McsQuantification:
        return _skipped_record(
            self.sdft,
            cutset,
            _worst_case_probability(self.translation_tree, cutset),
        )


def _quantify_parallel(
    ctx: _QuantifyContext,
    cutset_list: list,
    records: list,
    restored: dict,
    manager: "CheckpointManager | None",
    state: "Callable[[], dict]",
    n_jobs: int,
) -> int:
    """Dedup + process-pool quantification (the :mod:`repro.perf` path).

    Three phases: *plan* — build every cutset's ``FT_C`` and group the
    dynamic ones by model signature; *solve* — run one task per unique
    model on the farm, largest first; *fold* — append records in
    deterministic cutset order, advancing over the longest prefix whose
    solves have landed (so checkpoints stay valid mid-run).  Returns the
    number of worker-failed tasks (their cutsets are recovered in the
    parent via :meth:`_QuantifyContext.quantify`).
    """
    from repro.perf.dedup import DedupPlan
    from repro.perf.pool import SolveResult, SolveTask, fork_available, warm_farm
    from repro.perf.schedule import estimate_chain_states

    opts = ctx.opts
    plan = DedupPlan()
    # One entry per cutset: ("done", record) | ("serial", cutset) |
    # ("direct", model) | ("group", key, model).
    entries: list[tuple] = []
    for cutset in cutset_list:
        reused = restored.get(cutset)
        if reused is not None:
            entries.append(("done", reused))
            continue
        try:
            model = ctx.cache.model(ctx.sdft, cutset, ctx.classes)
        except (NumericalError, AnalysisError):
            # Defer to the per-cutset path, which reproduces the failure
            # — and its health events — exactly as the serial loop would.
            entries.append(("serial", cutset))
            continue
        if model.model is None or model.trivially_zero:
            entries.append(("direct", model))
            continue
        key = ctx.cache.signature(model.model, opts.horizon)
        ctx.cache.by_cutset[cutset] = key
        plan.add(key, model)
        entries.append(("group", key, model))

    wall_allowance = None
    state_allowance = None
    if ctx.budget is not None:
        wall_allowance = ctx.budget.remaining_seconds()
        if ctx.budget.max_total_states is not None:
            state_allowance = max(
                0, ctx.budget.max_total_states - ctx.budget.states_charged
            )
    obs = ctx.obs
    groups = plan.groups
    # Pre-resolve unique models from the in-memory cache first: a
    # session-primed (or earlier-run) signature never becomes a pool
    # task.  The fold then serves every member as a cache hit, exactly
    # like the serial loop.
    for task_id, group in enumerate(groups):
        primed = ctx.cache._store.get(group.key)
        if primed is not None:
            probability, chain_states = primed
            group.result = SolveResult(
                task_id, probability=probability, chain_states=chain_states
            )
    persistent = ctx.cache.persistent
    if persistent is not None:
        # Pre-resolve unique models from the on-disk cache: a warm group
        # never becomes a pool task at all.  The synthesised result then
        # flows through exactly the same fold (value guard, budget
        # charge, in-memory cache prime) as a pool-solved one.
        for task_id, group in enumerate(groups):
            if group.result is not None:
                continue
            warm = persistent.get_solve(
                group.key,
                opts.epsilon,
                opts.max_chain_states,
                opts.lump_chains,
            )
            if warm is not None:
                probability, chain_states = warm
                group.result = SolveResult(
                    task_id,
                    probability=probability,
                    chain_states=chain_states,
                )
    pending = [
        (task_id, group)
        for task_id, group in enumerate(groups)
        if group.result is None
    ]
    # With fork available, workers inherit the deduped model table from
    # the parent's memory and tasks carry just an index — no per-task
    # model pickling.  Without fork, models ship inline as before.
    use_table = fork_available()
    tasks = [
        SolveTask(
            task_id=task_id,
            model=None if use_table else group.representative.model,
            horizon=opts.horizon,
            epsilon=opts.epsilon,
            max_chain_states=opts.max_chain_states,
            lump_chains=opts.lump_chains,
            cutset=tuple(sorted(group.representative.cutset)),
            wall_allowance=wall_allowance,
            state_allowance=state_allowance,
            estimated_states=estimate_chain_states(group.representative.model),
            collect_obs=obs.enabled,
            submitted_at=time.time() if obs.enabled else None,
            model_index=index if use_table else -1,
        )
        for index, (task_id, group) in enumerate(pending)
    ]

    worker_faults = 0
    next_index = 0

    def fold_entry(entry: tuple) -> None:
        kind = entry[0]
        if kind == "done":
            records.append(ctx.checked(entry[1]))
            return
        if kind == "serial":
            records.append(ctx.quantify(entry[1]))
        elif kind == "direct":
            records.append(ctx.fold_direct(entry[1]))
        else:
            _, key, model = entry
            result = plan.get(key).result
            if result.ok:
                records.append(ctx.fold_solved(model, key, result))
            else:
                # Worker-side failure: recover this member in the parent
                # through the standard (ladder-protected) path.
                records.append(ctx.quantify(model.cutset))
        if manager is not None:
            manager.maybe_save("quantify", state)

    def fold_ready() -> None:
        nonlocal next_index
        while next_index < len(entries):
            entry = entries[next_index]
            if entry[0] == "group" and plan.get(entry[1]).result is None:
                break
            fold_entry(entry)
            next_index += 1

    if tasks:
        farm = warm_farm(
            n_jobs,
            task_timeout=opts.pool_task_timeout_seconds,
            options_key=_worker_options_key(opts),
        )
        if use_table:
            farm.set_model_table(
                [group.representative.model for _, group in pending],
                tuple(group.key for _, group in pending),
            )
        for result in farm.run_batched(tasks):
            group = groups[result.task_id]
            group.result = result
            if not result.ok:
                worker_faults += 1
            if obs.enabled:
                _merge_worker_obs(obs, result)
            fold_ready()
        _surface_farm_events(farm, ctx.health, obs)
        if obs.enabled and farm.batch_sizes:
            obs.metrics.count("pool.batches", len(farm.batch_sizes))
            for size in farm.batch_sizes:
                obs.metrics.observe("pool.batch_size", size)
    fold_ready()
    return worker_faults


def _worker_options_key(opts: AnalysisOptions) -> tuple:
    """Fingerprint of the options a pool worker's behaviour depends on.

    Keys the warm farm (see :func:`repro.perf.pool.warm_farm`): when any
    of these change between analyses, serving the old pool would mean
    serving stale worker config, so the pool is rebuilt instead.
    """
    return (repr(opts.epsilon), opts.max_chain_states, opts.lump_chains)


def _surface_farm_events(
    farm: "SolverFarm", health: HealthLog, obs: Observability
) -> None:
    """Turn the farm's recovery actions into health entries and metrics.

    Pool rebuilds, watchdog timeouts, crash retries and quarantines are
    operational facts about *this* run's environment — they appear in
    the health report (so a crash-scarred run is never indistinguishable
    from a clean one) but never change analysis values: the affected
    cutsets were re-answered through the standard degradation path.
    """
    for event in farm.events:
        cutset = frozenset(event.cutset) if event.cutset else None
        if event.kind == "retry":
            health.retry("pool", event.message, cutset=cutset)
        elif event.kind == "refresh":
            # A deliberate option-driven rebuild is routine — and it is
            # a fact about the *previous* run's options, not this run's
            # analysis, so it stays out of the health report entirely
            # (health must be identical across jobs and farm history);
            # it is still counted in the pool.rebuilds metric below.
            continue
        else:
            health.warning("pool", event.message, cutset=cutset)
    if obs.enabled:
        for kind, metric in (
            ("rebuild", "pool.rebuilds"),
            ("refresh", "pool.rebuilds"),
            ("timeout", "pool.timeouts"),
            ("retry", "pool.retries"),
            ("quarantine", "pool.quarantined"),
            ("probe", "pool.probes"),
        ):
            count = sum(1 for e in farm.events if e.kind == kind)
            if count:
                obs.metrics.count(metric, count)


def _merge_worker_obs(obs: Observability, result: "SolveResult") -> None:
    """Graft one worker's trace slice and metrics into the parent's.

    Worker span ids are prefixed per task, so grafting cannot collide;
    the shipped roots are re-parented under the currently open span
    (the ``quantify`` phase).  The ``pool.*`` quantities are timing
    metrics — informative, never part of the cross-``jobs`` determinism
    guarantee (the analysis-derived ``transient.*`` counters shipped in
    ``result.metrics`` are).
    """
    if result.spans:
        obs.tracer.add_foreign(result.spans, parent_id=obs.tracer.current_id)
    if result.metrics:
        obs.metrics.merge_snapshot(result.metrics)
    obs.metrics.count("pool.tasks")
    if not result.ok:
        obs.metrics.count("pool.worker_faults")
    obs.metrics.observe("pool.queue_wait_seconds", result.queue_wait_seconds)
    if result.ok:
        obs.metrics.observe("pool.task_solve_seconds", result.solve_seconds)


def _quantify_one(
    sdft: SdFaultTree,
    cutset: frozenset,
    opts: AnalysisOptions,
    classes: "ClassificationReport",
    cache: QuantificationCache,
    budget: "Budget | None",
    health: HealthLog,
    obs: Observability = NULL_OBS,
) -> McsQuantification:
    """Quantify one cutset, through the ladder when isolation is on."""
    if not opts.fault_isolation:
        record = quantify_cutset(
            sdft,
            cutset,
            opts.horizon,
            classes=classes,
            cache=cache,
            epsilon=opts.epsilon,
            max_chain_states=opts.max_chain_states,
            on_oversize=opts.on_oversize,
            lump_chains=opts.lump_chains,
            budget=budget,
            obs=obs,
        )
        if record.bounded:
            health.degradation(
                "quantify",
                "oversized chain bounded by the interval approximation",
                cutset=cutset,
                rung="bound",
            )
        return record

    from repro.robust.ladder import quantify_with_ladder

    outcome = quantify_with_ladder(
        sdft,
        cutset,
        opts.horizon,
        classes=classes,
        cache=cache,
        epsilon=opts.epsilon,
        max_chain_states=opts.max_chain_states,
        lump_chains=opts.lump_chains,
        budget=budget,
        monte_carlo_runs=opts.monte_carlo_runs,
        monte_carlo_seed=opts.monte_carlo_seed,
        monte_carlo_target_rel_error=opts.mc_target_rel_error,
        monte_carlo_engine=opts.mc_engine,
        obs=obs if obs.enabled else None,
    )
    for attempt in outcome.attempts:
        health.retry(
            "quantify",
            f"rung failed: {attempt.error}",
            cutset=cutset,
            rung=attempt.rung,
        )
    if outcome.degraded:
        detail = "fallback value substituted"
        if outcome.note:
            detail = f"{detail} ({outcome.note})"
        health.degradation(
            "quantify",
            detail,
            cutset=cutset,
            rung=outcome.rung,
        )
    return outcome.record


def _worst_case_probability(
    translation_tree: "FaultTree", cutset: frozenset
) -> float:
    """The static worst-case ``p̄(C)`` — inequality (1)'s upper bound.

    Computed from the *translation* tree (never the MOCUS override
    probabilities), so it soundly dominates ``p̃(C)``.
    """
    probability = 1.0
    for name in cutset:
        probability *= translation_tree.events[name].probability
    return probability


def _skipped_record(
    sdft: SdFaultTree, cutset: frozenset, worst_case: float
) -> McsQuantification:
    """A conservative placeholder for a cutset the budget never reached."""
    n_dynamic = sum(1 for name in cutset if sdft.is_dynamic(name))
    return McsQuantification(
        cutset,
        worst_case,
        n_dynamic > 0,
        n_dynamic,
        n_dynamic,
        0,
        0,
        0.0,
        bounded=True,
        lower_bound=0.0,
        rung="skipped",
    )


def analyze_curve(
    sdft: SdFaultTree,
    horizons: "list[float] | tuple[float, ...]",
    options: AnalysisOptions | None = None,
) -> dict[float, float]:
    """Failure probability as a function of the mission time.

    Evaluates ``Pr[Reach^{<=t}(F)]`` for every horizon in ``horizons``
    over a *single* cutset list: the list is generated once at the
    largest horizon, where the worst-case probabilities — monotone in
    ``t`` — are largest, so no cutset relevant at any requested horizon
    is missed.  Per-horizon quantification reuses the shared chain-solve
    cache, which makes a 10-point curve cost far less than 10 analyses.

    A curve carries no health log: when the BDD trips
    ``bdd_node_budget`` during cutset generation, the MOCUS fallback
    runs without the note :func:`analyze` would record (the cutsets are
    the same either way).
    """
    if not horizons:
        return {}
    opts = options or AnalysisOptions()
    widest = max(horizons)
    if min(horizons) < 0.0:
        raise ValueError(f"horizons must be non-negative, got {sorted(horizons)}")

    translation = to_static(sdft, widest)
    mocus_tree = translation.tree
    if opts.mocus_probability_overrides:
        mocus_tree = mocus_tree.with_probabilities(opts.mocus_probability_overrides)
    cutsets = _generate_cutsets(
        mocus_tree, opts, None, HealthLog(), None, None
    )[0].cutsets

    classes = classification_report(sdft).by_gate
    cache = QuantificationCache()
    curve: dict[float, float] = {}
    for horizon in sorted(set(horizons)):
        total = 0.0
        for cutset in cutsets:
            record = quantify_cutset(
                sdft,
                cutset,
                horizon,
                classes=classes,
                cache=cache,
                epsilon=opts.epsilon,
                max_chain_states=opts.max_chain_states,
                on_oversize=opts.on_oversize,
                lump_chains=opts.lump_chains,
            )
            if record.probability > opts.cutoff:
                total += record.probability
        curve[horizon] = total
    return curve


def analyze_exact(
    sdft: SdFaultTree,
    horizon: float,
    max_states: int = 200_000,
    epsilon: float = 1e-12,
) -> float:
    """Exact ``Pr[Reach^{<=t}(F)]`` via the full product chain.

    Exponential in the number of basic events — the baseline the paper's
    decomposition replaces.  Use only on small trees (or let
    ``max_states`` raise).
    """
    from repro.ctmc.product import build_product
    from repro.ctmc.transient import reach_probability

    product = build_product(sdft, max_states=max_states)
    return reach_probability(product.chain, horizon, epsilon=epsilon)


def analyze_static(
    sdft: SdFaultTree,
    options: AnalysisOptions | None = None,
) -> float:
    """The "no timing" baseline: analyse the tree as purely static.

    Every dynamic event is frozen at its worst-case (triggered at time
    zero, never untriggered) failure probability over the horizon and
    triggers become AND gates — this mirrors what a static tool computes
    from a conventional model where every component runs from time zero
    and timing interdependencies are ignored.
    """
    opts = options or AnalysisOptions()
    translation = to_static(sdft, opts.horizon)
    result = rare_event_probability(
        translation.tree, MocusOptions(cutoff=opts.cutoff, max_partials=opts.max_partials)
    )
    return result.value
