"""Span recording and per-layer accounting for the traced run.

The traced run records one span around every call the benchmark makes
into a layer's public functions.  A span's name is its layer
(``web.build``, ``pipeline.plan``, ...); the per-layer seconds are the
spans' *self* times — duration minus the part covered by child spans —
summed by name, so the layers add up to the traced wall time and the
remainder is reported as ``bench.unaccounted_s``.

Two kinds of spans cannot be recorded around a call the benchmark
makes itself:

* ``run_week`` runs three layers in one public call.  Its split comes
  from the :class:`~repro.pipeline.engine.ScanPhaseStats` the call
  accepts: :func:`add_week_phases` lays derived child spans
  (schedule, then site phase, then attribution) under the week span.
* The report functions call the public figure and table functions
  themselves.  :func:`wrapped` swaps a span-recording wrapper onto the
  module attribute for the length of the traced run and restores it
  afterwards; no file of the program changes.

This module imports nothing from ``repro`` at import time: the child
process times ``import repro`` itself.
"""

from __future__ import annotations

from contextlib import contextmanager

#: Span names whose metric is the *inclusive* duration (everything the
#: call did), reported next to the self-time layers they contain.
INCLUSIVE = {"pipeline.week": "pipeline.week_s", "analysis.report": "analysis.report_s"}

#: Self-time layers: span name -> per-layer metric.  The report span's
#: self time (rendering plus the small summaries) is ``analysis.render``.
SELF_METRICS = {
    "python.startup": "python.startup_s",
    "repro.import": "repro.import_s",
    "web.build": "web.build_s",
    "web.snapshot_decode": "web.snapshot_decode_s",
    "web.sections": "web.sections_s",
    "pipeline.plan": "pipeline.plan_s",
    "store.columns": "store.columns_s",
    "pipeline.trigger_index": "pipeline.trigger_index_s",
    "pipeline.schedule": "pipeline.schedule_s",
    "pipeline.site_phase": "pipeline.site_phase_s",
    "pipeline.attribution": "pipeline.attribution_s",
    "plugins.finalize": "plugins.finalize_s",
    "pipeline.dedup": "pipeline.dedup_s",
    "pipeline.vantage": "pipeline.vantage_s",
    "analysis.report": "analysis.render_s",
    "analysis.figure3": "analysis.figure3_s",
    "analysis.figure4": "analysis.figure4_s",
    "analysis.figure8": "analysis.figure8_s",
    "analysis.tables": "analysis.tables_s",
    "analysis.figure7": "analysis.figure7_s",
}

#: Spans that are not a layer of their own: the benchmark's root span,
#: whose self time is its glue, and the week span, whose derived
#: children cover it.  Their self time lands in ``bench.unaccounted_s``.
GLUE = ("bench.run", "pipeline.week")


def startup_spans(tracer, spawn: float, started: float, imported: float) -> None:
    """Adopt the intervals timed before ``Tracer`` existed.

    ``python.startup`` runs from process spawn until the child's own
    code starts; ``repro.import`` is the ``import repro`` after it.
    """
    from repro.obs.spans import Span

    spans = []
    for name, start, end in (
        ("python.startup", spawn, started),
        ("repro.import", started, imported),
    ):
        span = Span(name, "layer", start, 0, None, tracer.pid)
        span.duration = end - start
        spans.append(span)
    tracer.adopt(spans, None)


def add_week_phases(tracer, week_span, stats) -> None:
    """Derive ``run_week``'s three layers from its ``ScanPhaseStats``.

    ``stats`` covers exactly this one call.  The site phase and the
    attribution are timed by the engine; what remains of the call is
    scheduling (plus building the run object), which ``run_week`` does
    first.  The derived spans are laid out in that order.
    """
    from repro.obs.spans import Span

    site = stats.site_phase_seconds
    attribution = stats.attribution_seconds
    schedule = max(0.0, week_span.duration - site - attribution)
    spans = []
    start = week_span.start
    for name, duration in (
        ("pipeline.schedule", schedule),
        ("pipeline.site_phase", site),
        ("pipeline.attribution", attribution),
    ):
        span = Span(name, "layer", start, 0, None, tracer.pid, {"derived": "ScanPhaseStats"})
        span.duration = duration
        spans.append(span)
        start += duration
    tracer.adopt(spans, week_span)


@contextmanager
def wrapped(tracer, targets):
    """Record a span around every call of the given module attributes.

    ``targets`` is a list of ``(module, attribute, span_name)``; the
    originals are restored on exit, also when the body raises.
    """
    saved = []

    def wrap(function, name):
        def traced(*args, **kwargs):
            with tracer.span(name, "layer"):
                return function(*args, **kwargs)

        return traced

    try:
        for module, attribute, name in targets:
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, wrap(original, name))
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


def self_times(spans) -> dict[str, float]:
    """Sum of self time per span name over finished spans."""
    child_total: dict[int, float] = {}
    for span in spans:
        if span.duration is not None and span.parent_id is not None:
            child_total[span.parent_id] = child_total.get(span.parent_id, 0.0) + span.duration
    totals: dict[str, float] = {}
    for span in spans:
        if span.duration is None:
            continue
        own = span.duration - child_total.get(span.span_id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def inclusive_times(spans) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span in spans:
        if span.duration is not None:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def layer_seconds(spans, traced_wall: float) -> dict[str, float]:
    """Per-layer seconds of one traced run, plus the accounting remainder."""
    own = self_times(spans)
    unknown = set(own) - set(SELF_METRICS) - set(GLUE)
    if unknown:
        raise ValueError(f"spans without a layer: {sorted(unknown)}")
    out = {metric: own.get(name, 0.0) for name, metric in SELF_METRICS.items()}
    inclusive = inclusive_times(spans)
    for name, metric in INCLUSIVE.items():
        out[metric] = inclusive.get(name, 0.0)
    accounted = sum(own.get(name, 0.0) for name in SELF_METRICS)
    out["bench.unaccounted_s"] = traced_wall - accounted
    return out
