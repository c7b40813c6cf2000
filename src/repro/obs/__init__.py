"""Unified telemetry: metrics registry, span tracing, run reports.

``repro.obs`` is the cross-cutting observability layer for the scan
runtime (docs/observability.md):

* :mod:`repro.obs.metrics` — namespaced counters/gauges/histograms
  with plain-attribute hot paths, plus the :func:`safe_ratio`
  zero-denominator convention every derived rate follows.
* :mod:`repro.obs.spans` — hierarchical span tracing on the monotonic
  clock (campaign → week → phase → shard).
* :mod:`repro.obs.export` — Chrome trace-event JSON (``--trace-out``,
  Perfetto-loadable) and the schema-versioned metrics report
  (``--metrics-out``).
* :mod:`repro.obs.progress` — the opt-in stderr heartbeat
  (``--progress``).

:class:`Telemetry` bundles one registry + one tracer; passing it to
``run_campaign``/``run_weekly_scan`` (or setting ``engine.telemetry``)
turns instrumentation on.  ``telemetry=None`` everywhere is the
default and keeps the hot paths untouched.
"""

from __future__ import annotations

from repro.obs.export import (
    METRICS_SCHEMA,
    METRICS_SCHEMA_VERSION,
    load_metrics,
    span_summary,
    trace_events,
    write_metrics,
    write_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    reset_global_registry,
    safe_ratio,
)
from repro.obs.progress import CampaignProgress
from repro.obs.spans import Span, Tracer

__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "CampaignProgress",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "global_registry",
    "load_metrics",
    "reset_global_registry",
    "safe_ratio",
    "span_summary",
    "trace_events",
    "write_metrics",
    "write_trace",
]


class Telemetry:
    """One instrumented run's registry + tracer, carried as a unit.

    The engine and campaign accept ``telemetry=None`` (no overhead) or
    a ``Telemetry``; both members always exist so call sites never
    branch on partial instrumentation.
    """

    __slots__ = ("registry", "tracer")

    def __init__(self, registry: MetricsRegistry | None = None, tracer: Tracer | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
