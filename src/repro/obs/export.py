"""Telemetry exporters: Chrome trace-event JSON and the run report.

Two artifacts come out of an instrumented run:

* ``--trace-out trace.json`` — Chrome trace-event format (the
  ``traceEvents`` array of ``"ph": "X"`` complete events), loadable
  directly in Perfetto / ``chrome://tracing``.  Timestamps are
  microseconds relative to the earliest span in the trace; ``pid`` is
  the real OS pid of the recording process.  Span ids and parent ids
  ride in ``args`` (complete events have no native parent field) —
  tests and downstream tools recover the hierarchy from there.

* ``--metrics-out metrics.json`` — schema-versioned run report: the
  full metric tree (:meth:`MetricsRegistry.to_tree`) plus a per-category
  span summary.  The bench harness consumes this instead of private
  timing plumbing; :func:`load_metrics` is the versioned decoder.
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry, safe_ratio
from repro.obs.spans import Span, Tracer

__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "load_metrics",
    "span_summary",
    "trace_events",
    "write_metrics",
    "write_trace",
]

METRICS_SCHEMA = "repro.obs.metrics"
METRICS_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def trace_events(spans: list[Span]) -> list[dict]:
    """Map finished spans to Chrome trace-event ``"X"`` dicts.

    Timestamps are normalised so the earliest span starts at ts=0;
    Perfetto neither needs nor wants raw ``perf_counter`` epochs.
    """
    finished = [span for span in spans if span.duration is not None]
    if not finished:
        return []
    origin = min(span.start for span in finished)
    events = []
    for span in finished:
        args = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.attrs:
            args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": span.pid,
                "tid": 0,
                "args": args,
            }
        )
    events.sort(key=lambda event: (event["ts"], event["args"]["span_id"]))
    return events


def write_trace(path, tracer: Tracer) -> int:
    """Write a Perfetto-loadable trace file; returns the event count."""
    events = trace_events(tracer.spans)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")
    return len(events)


# ----------------------------------------------------------------------
# Run report (metrics + span summary)
# ----------------------------------------------------------------------
def span_summary(spans: list[Span]) -> dict:
    """Per-(category, name) aggregate of finished spans for the report."""
    summary: dict[str, dict] = {}
    for span in spans:
        if span.duration is None:
            continue
        key = f"{span.category}.{span.name}"
        entry = summary.get(key)
        if entry is None:
            entry = summary[key] = {
                "count": 0,
                "total_seconds": 0.0,
                "max_seconds": 0.0,
            }
        entry["count"] += 1
        entry["total_seconds"] += span.duration
        if span.duration > entry["max_seconds"]:
            entry["max_seconds"] = span.duration
    for entry in summary.values():
        entry["mean_seconds"] = safe_ratio(entry["total_seconds"], entry["count"])
    return {key: summary[key] for key in sorted(summary)}


def write_metrics(path, registry: MetricsRegistry, tracer: Tracer | None = None) -> dict:
    """Write the schema-versioned run report; returns the document."""
    document = {
        "schema": METRICS_SCHEMA,
        "version": METRICS_SCHEMA_VERSION,
        "metrics": registry.to_tree(),
        "spans": span_summary(tracer.spans) if tracer is not None else {},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def load_metrics(path) -> dict:
    """Versioned decode of a ``--metrics-out`` report.

    Rejects unknown schemas/major versions loudly — consumers (bench
    harness, CI gates) must fail fast on a format drift, not silently
    read zeros.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    schema = document.get("schema")
    if schema != METRICS_SCHEMA:
        raise ValueError(f"not a repro metrics report (schema={schema!r})")
    version = document.get("version")
    if version != METRICS_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported metrics schema version {version!r} "
            f"(expected {METRICS_SCHEMA_VERSION})"
        )
    return document
