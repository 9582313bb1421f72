"""Render traces and metric snapshots for humans.

Two consumers:

* the ``sdft trace FILE`` subcommand —
  :func:`render_trace_report` summarises a JSONL trace into a per-span
  cost table (count, total/mean/max wall, CPU, share of the root
  span's wall time), the cutset-engine and dedup lines, then the
  recorded metrics;
* the run summary and health report —
  :func:`metric_highlights` picks the handful of metric lines worth
  printing after every traced/metered run (cutset engine, MOCUS work,
  dedup ratio, series terms, pool queue waits and recovery actions,
  verification checks, ladder descents, budget charges).
"""

from __future__ import annotations

import json

__all__ = ["metric_highlights", "render_trace_report", "summarize_spans"]


def load_trace(
    path: str,
) -> tuple[dict, list[dict], dict[str, float], dict[str, dict]]:
    """Parse a JSONL trace into ``(meta, spans, counters, histograms)``."""
    meta: dict = {}
    spans: list[dict] = []
    counters: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            line = json.loads(raw)
            kind = line.get("type")
            if kind == "meta":
                meta = line
            elif kind == "span":
                spans.append(line)
            elif kind == "counter":
                counters[line["name"]] = line["value"]
            elif kind == "histogram":
                histograms[line["name"]] = line
    return meta, spans, counters, histograms


def summarize_spans(spans: list[dict]) -> list[dict]:
    """Aggregate spans by name: count and wall/CPU totals and extremes.

    Returned rows are sorted by descending total wall time; each row
    carries ``name, count, wall, cpu, mean, max, share`` where
    ``share`` is the fraction of the root spans' wall time (1.0 when
    there is no root to compare against).
    """
    groups: dict[str, dict] = {}
    for span in spans:
        row = groups.setdefault(
            span["name"],
            {"name": span["name"], "count": 0, "wall": 0.0, "cpu": 0.0,
             "max": 0.0, "depth": span.get("depth", 0)},
        )
        row["count"] += 1
        row["wall"] += span["wall"]
        row["cpu"] += span["cpu"]
        if span["wall"] > row["max"]:
            row["max"] = span["wall"]
        if span.get("depth", 0) < row["depth"]:
            row["depth"] = span.get("depth", 0)
    root_wall = sum(s["wall"] for s in spans if s.get("parent_id") is None)
    rows = sorted(groups.values(), key=lambda row: -row["wall"])
    for row in rows:
        row["mean"] = row["wall"] / row["count"]
        row["share"] = row["wall"] / root_wall if root_wall > 0.0 else 1.0
    return rows


def render_trace_report(path: str) -> str:
    """The full ``sdft trace`` output for one trace file."""
    meta, spans, counters, histograms = load_trace(path)
    lines = [f"trace: {path} ({meta.get('schema', '?')})"]
    attrs = meta.get("attrs") or {}
    if attrs:
        described = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(f"run: {described}")
    lines.append("")
    if spans:
        lines.append(
            f"{'span':32s} {'count':>7s} {'wall (s)':>10s} {'cpu (s)':>10s} "
            f"{'mean (s)':>10s} {'max (s)':>10s} {'share':>7s}"
        )
        for row in summarize_spans(spans):
            lines.append(
                f"{row['name']:32s} {row['count']:7d} {row['wall']:10.4f} "
                f"{row['cpu']:10.4f} {row['mean']:10.4f} {row['max']:10.4f} "
                f"{row['share']:7.1%}"
            )
    else:
        lines.append("no spans recorded")
    summary = [
        line
        for line in (_cutsets_line(counters, histograms), _dedup_line(counters))
        if line is not None
    ]
    if summary:
        lines.extend(("", *summary))
    if counters or histograms:
        lines.append("")
        lines.append("metrics:")
        for name in sorted(counters):
            lines.append(f"  {name} = {counters[name]:g}")
        for name in sorted(histograms):
            entry = histograms[name]
            mean = entry["total"] / entry["count"] if entry["count"] else 0.0
            lines.append(
                f"  {name}: n={entry['count']} mean={mean:g} "
                f"min={entry['min']:g} max={entry['max']:g}"
            )
    return "\n".join(lines)


def metric_highlights(snapshot: dict | None) -> list[str]:
    """The metric lines the run summary prints for a metered run.

    Picks only the metrics that exist in the snapshot, so a serial run
    shows no pool lines and an unbudgeted run no budget lines.
    """
    if not snapshot:
        return []
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    lines: list[str] = []

    rewrites = counters.get("sem.rewrites")
    if rewrites is not None:
        lines.append(
            f"sem: {rewrites:g} verified rewrites "
            f"(-{counters.get('sem.removed_gates', 0):g} gates, "
            f"-{counters.get('sem.removed_events', 0):g} events, "
            f"{counters.get('sem.verified_scopes', 0):g} scopes proved, "
            f"{counters.get('sem.budget_trips', 0):g} budget trips)"
        )
    engine = _cutsets_line(counters, histograms)
    if engine is not None:
        lines.append(engine)
    expanded = counters.get("mocus.partials_expanded")
    if expanded is not None:
        lines.append(
            f"mocus: {expanded:g} expansions, "
            f"{counters.get('mocus.partials_cut_off', 0):g} cut off, "
            f"{counters.get('mocus.partials_deduplicated', 0):g} deduplicated, "
            f"{counters.get('mocus.partials_subsumed', 0):g} subsumed"
        )
    dedup = _dedup_line(counters)
    if dedup is not None:
        lines.append(dedup)
    terms = histograms.get("transient.series_terms")
    if terms is not None:
        mean = terms["total"] / terms["count"] if terms["count"] else 0.0
        lines.append(
            f"uniformization: {terms['count']} solves, "
            f"mean {mean:.1f} series terms (max {terms['max']:g}), "
            f"{counters.get('transient.early_exit', 0):g} early exits"
        )
    queue = histograms.get("pool.queue_wait_seconds")
    if queue is not None:
        mean = queue["total"] / queue["count"] if queue["count"] else 0.0
        lines.append(
            f"pool: {queue['count']} tasks, queue wait mean {mean:.3f}s "
            f"(max {queue['max']:.3f}s), "
            f"{counters.get('pool.worker_faults', 0):g} worker faults"
        )
    batches = counters.get("pool.batches")
    if batches:
        sizes = histograms.get("pool.batch_size")
        line = f"batching: {batches:g} batches"
        if sizes and sizes["count"]:
            line += (
                f", mean {sizes['total'] / sizes['count']:.1f} tasks/batch "
                f"(max {sizes['max']:g})"
            )
        lines.append(line)
    recovery = {
        kind: counters.get(f"pool.{kind}", 0)
        for kind in ("rebuilds", "timeouts", "retries", "quarantined", "probes")
    }
    if any(recovery.values()):
        lines.append(
            "pool recovery: "
            + ", ".join(f"{count:g} {kind}" for kind, count in recovery.items())
        )
    checks = counters.get("verify.checks")
    if checks is not None:
        lines.append(
            f"verify: {checks:g} invariant checks, "
            f"{counters.get('verify.violations', 0):g} violations"
        )
    descents = counters.get("ladder.descents")
    if descents:
        lines.append(
            f"ladder: {descents:g} descents, "
            f"{counters.get('ladder.attempts_failed', 0):g} failed rungs"
        )
    mc_runs = counters.get("mc.runs")
    if mc_runs:
        engines = ", ".join(
            f"{counters[key]:g}x {key.removeprefix('mc.engine.')}"
            for key in sorted(counters)
            if key.startswith("mc.engine.")
        )
        line = f"monte-carlo: {mc_runs:g} trajectories"
        if engines:
            line += f" ({engines})"
        achieved = histograms.get("mc.achieved_rel_error")
        if achieved and achieved["count"]:
            line += (
                f", achieved rel. error mean "
                f"{achieved['total'] / achieved['count']:.3g} "
                f"(worst {achieved['max']:.3g})"
            )
        lines.append(line)
    cache_keys = [key for key in counters if key.startswith("cache.")]
    if cache_keys:
        solve_hits = counters.get("cache.solve_hits", 0)
        solve_misses = counters.get("cache.solve_misses", 0)
        line = (
            f"cache: {solve_hits:g} solve hits / {solve_misses:g} misses, "
            f"{counters.get('cache.records_hits', 0):g} record hits"
        )
        errors = counters.get("cache.errors", 0)
        if errors:
            line += f", {errors:g} errors (served as misses)"
        lines.append(line)
    states = counters.get("budget.states_charged")
    if states is not None or counters.get("budget.cutsets_charged") is not None:
        lines.append(
            f"budget: {states or 0:g} chain states charged, "
            f"{counters.get('budget.cutsets_charged', 0):g} cutsets charged"
        )
    return lines


def _dedup_line(counters: dict) -> str | None:
    """Chain-solve sharing, and how many ``FT_C`` models were built."""
    hits = counters.get("quantify.dedup_hits")
    misses = counters.get("quantify.dedup_misses")
    if hits is None and misses is None:
        return None
    hits = hits or 0
    misses = misses or 0
    total = hits + misses
    ratio = hits / total if total else 0.0
    line = f"dedup: {hits:g} hits / {misses:g} misses ({ratio:.0%} shared)"
    builds = counters.get("quantify.model_builds")
    if builds is not None:
        dynamic = builds + counters.get("quantify.model_reuses", 0)
        line += (
            f"; FT_C builds {builds:g} for {dynamic:g} dynamic cutsets, "
            f"{misses:g} solves"
        )
    return line


def _cutsets_line(counters: dict, histograms: dict) -> str | None:
    """Which engine generated the cutsets: ``bdd`` or the MOCUS fallback."""
    engines = [
        (key.removeprefix("cutsets.engine."), value)
        for key, value in sorted(counters.items())
        if key.startswith("cutsets.engine.")
    ]
    if not engines:
        return None
    described = ", ".join(
        name if value == 1 else f"{name} x{value:g}" for name, value in engines
    )
    line = f"cutsets: engine {described}"
    nodes = histograms.get("cutsets.bdd_nodes")
    if nodes is not None and nodes["count"]:
        line += f" ({nodes['max']:g} minsol BDD nodes)"
    trips = counters.get("bdd.budget_trips")
    if trips:
        line += f", {trips:g} BDD budget trips"
    return line
