"""The traced run: ``analyze()``'s cold pipeline recomposed from public calls.

There is no tracing inside the analyzer yet, so the benchmark times each
layer from outside, around the public function that implements it:

    core.to_static   to_static (+ the MOCUS probability overrides)
    ft.mocus         mocus(tree, MocusOptions(cutoff, max_partials))
    core.classify    classification_report(...).by_gate
    core.quantify    the per-cutset loop, parent of:
      core.cutset_model  build_cutset_model, once per cutset
      ctmc.product       build_product, once per unique signature
      ctmc.transient     reach_probability, once per unique signature

The replay must reproduce ``analyze()``'s records bit for bit (ignoring
``solve_seconds``); :func:`same_records` is that check.  If they differ,
the replay measures a different program and the traced run fails.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.core.analyzer import AnalysisOptions
from repro.core.classify import classification_report
from repro.core.cutset_model import build_cutset_model
from repro.core.quantify import McsQuantification, QuantificationCache, quantify_model
from repro.core.to_static import to_static
from repro.ctmc.product import build_product
from repro.ctmc.transient import reach_probability
from repro.ft.mocus import MocusOptions, mocus
from repro.obs.metrics import MetricsRegistry

#: Layer spans, in pipeline order; ``replay`` is the root.
LAYERS = (
    "core.to_static",
    "ft.mocus",
    "core.classify",
    "core.quantify",
    "core.cutset_model",
    "ctmc.product",
    "ctmc.transient",
)


class Spans:
    """Nested wall-clock spans kept in memory as per-name self time.

    A span's self time is its duration minus the time its child spans
    cover; spans run on one thread, so children nest strictly.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._child_time: list[float] = []

    @contextmanager
    def span(self, name: str):
        """Time the ``with`` body as one call of the span ``name``."""
        started = time.perf_counter()
        self._child_time.append(0.0)
        try:
            yield
        finally:
            duration = time.perf_counter() - started
            self.self_s[name] += duration - self._child_time.pop()
            self.calls[name] += 1
            if self._child_time:
                self._child_time[-1] += duration


@dataclass
class Replay:
    """What one traced replay produced and counted."""

    records: tuple[McsQuantification, ...]
    failure_probability: float
    counts: dict[str, float]
    spans: Spans


def replay(sdft, opts: AnalysisOptions) -> Replay:
    """Run the cold cutset pipeline of ``analyze(sdft, opts)`` under spans.

    Mirrors the serial, unbudgeted, uncached path: ``opts`` may carry
    ``horizon``, ``cutoff``, ``epsilon``, ``max_chain_states``,
    ``max_partials`` and ``mocus_probability_overrides``; the result is
    served as the rare-event record sum (the path of every dynamic model
    whose sum stays below 1).
    """
    spans = Spans()
    metrics = MetricsRegistry()
    cache = QuantificationCache()
    records: list[McsQuantification] = []
    states: list[int] = []
    with spans.span("replay"):
        with spans.span("core.to_static"):
            translation = to_static(sdft, opts.horizon)
            mocus_tree = translation.tree
            if opts.mocus_probability_overrides:
                mocus_tree = mocus_tree.with_probabilities(
                    opts.mocus_probability_overrides
                )
        with spans.span("ft.mocus"):
            found = mocus(
                mocus_tree,
                MocusOptions(cutoff=opts.cutoff, max_partials=opts.max_partials),
                metrics=metrics,
            )
        with spans.span("core.classify"):
            classes = classification_report(sdft).by_gate
        with spans.span("core.quantify"):
            for cutset in found.cutsets:
                with spans.span("core.cutset_model"):
                    model = build_cutset_model(sdft, cutset, classes)
                records.append(_quantify(model, opts, cache, spans, metrics, states))
            total = sum(r.probability for r in records if r.probability > opts.cutoff)
    snapshot = metrics.snapshot()
    builds = spans.calls["core.cutset_model"]
    counts = {
        "mocus.partials_expanded": snapshot["counters"]["mocus.partials_expanded"],
        "mocus.minimal": snapshot["counters"]["mocus.cutsets_minimal"],
        "mocus.cutsets": len(found.cutsets),
        "cutset_model.builds": builds,
        "quantify.dedup_hits": cache.hits,
        "quantify.dedup_misses": cache.misses,
        "product.states": sum(states),
        "product.states_max": max(states, default=0),
        "transient.solves": spans.calls["ctmc.transient"],
        "transient.series_terms": snapshot["histograms"]
        .get("transient.series_terms", {})
        .get("total", 0),
    }
    return Replay(tuple(records), total, counts, spans)


def _quantify(model, opts, cache, spans, metrics, states) -> McsQuantification:
    """One cutset as ``quantify_model`` would, with the solve split in spans."""
    if model.trivially_zero or model.model is None:
        return quantify_model(model, opts.horizon)
    key = cache.signature(model.model, opts.horizon)
    found = cache.get(key)
    if found is not None:
        probability, chain_states = found
        solve_seconds, cache_hit = 0.0, True
    else:
        started = time.perf_counter()
        with spans.span("ctmc.product"):
            product = build_product(model.model, max_states=opts.max_chain_states)
        with spans.span("ctmc.transient"):
            probability = reach_probability(
                product.chain, opts.horizon, epsilon=opts.epsilon, metrics=metrics
            )
        chain_states = product.n_states
        states.append(chain_states)
        cache.put(key, probability, chain_states)
        solve_seconds, cache_hit = time.perf_counter() - started, False
    return McsQuantification(
        model.cutset,
        probability * model.static_factor,
        True,
        model.n_dynamic_in_cutset,
        model.n_dynamic_in_model,
        model.n_added_dynamic,
        chain_states,
        solve_seconds,
        cache_hit=cache_hit,
        dependencies=model.dependencies,
    )


def same_records(replayed, analyzed) -> bool:
    """Whether two record sequences agree bit for bit but for solve times."""
    if len(replayed) != len(analyzed):
        return False
    return all(
        replace(a, solve_seconds=0.0) == replace(b, solve_seconds=0.0)
        for a, b in zip(replayed, analyzed)
    )
