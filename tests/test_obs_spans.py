"""Span tracing: implicit parenting, adoption, trace export.

The acceptance bar for the telemetry layer: every inline ``shard`` span
lands under its own week's site-phase span, the Chrome trace export is
structurally valid, and instrumentation never changes results (the
golden test pins instrumented == uninstrumented report text).
"""

from __future__ import annotations

import json

import repro
from repro.analysis.report import longitudinal_report
from repro.obs import Telemetry, Tracer, trace_events, write_trace
from repro.obs.spans import Span
from repro.pipeline import run_campaign
from repro.web.spec import WorldConfig

from tests.conftest import SMALL_SCALE


def _weeks(world):
    config = world.config
    return [config.start_week, config.start_week + 8, config.reference_week]


# ----------------------------------------------------------------------
# Tracer semantics
# ----------------------------------------------------------------------
def test_begin_end_nesting_gives_implicit_parents():
    tracer = Tracer()
    outer = tracer.begin("campaign", "campaign")
    inner = tracer.begin("week", "campaign", week="2023-W15")
    assert inner.parent_id == outer.span_id
    assert tracer.current() is inner
    tracer.end(inner)
    tracer.end(outer)
    assert outer.duration >= inner.duration >= 0.0
    assert tracer.current() is None


def test_end_closes_abandoned_children():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("leaked")
    tracer.end(outer)  # closes "leaked" too
    assert all(span.duration is not None for span in tracer.spans)


def test_span_context_manager():
    tracer = Tracer()
    with tracer.span("a") as span:
        assert tracer.current() is span
    assert span.duration is not None


def test_adopt_reparents_roots():
    """Externally built spans hang off the chosen parent; their internal
    structure survives with ids remapped into the tracer's id space."""
    outer = Span("layer", "layer", 0.0, 1, None, 0)
    inner = Span("sub", "layer", 0.0, 2, 1, 0)
    for span in (outer, inner):
        span.duration = 0.0
    tracer = Tracer()
    site = tracer.begin("site", "phase")
    adopted = tracer.adopt([outer, inner], tracer.current())
    tracer.end(site)
    by_name = {span.name: span for span in adopted}
    assert by_name["layer"].parent_id == site.span_id
    assert by_name["sub"].parent_id == by_name["layer"].span_id
    ids = [span.span_id for span in tracer.spans]
    assert len(ids) == len(set(ids))
    assert tracer.adopt([], None) == []


# ----------------------------------------------------------------------
# Chrome trace-event export validity
# ----------------------------------------------------------------------
def _assert_valid_trace_document(document):
    events = document["traceEvents"]
    assert events, "trace must not be empty"
    ids = set()
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["cat"], str) and event["cat"]
        ids.add(event["args"]["span_id"])
    assert len(ids) == len(events)  # unique span ids
    for event in events:
        parent = event["args"].get("parent_id")
        assert parent is None or parent in ids  # no dangling parents
    # Normalised to the earliest span and sorted.
    assert min(event["ts"] for event in events) == 0.0
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
    return events


def test_trace_events_validity_and_write(tmp_path):
    tracer = Tracer()
    with tracer.span("campaign", "campaign"):
        with tracer.span("week", "campaign", week="2023-W15"):
            pass
        with tracer.span("week", "campaign", week="2023-W23"):
            pass
    tracer.begin("open")  # open span: excluded from export
    path = tmp_path / "trace.json"
    count = write_trace(path, tracer)
    document = json.loads(path.read_text())
    events = _assert_valid_trace_document(document)
    assert count == len(events) == 3
    assert document["otherData"]["producer"] == "repro.obs"


def test_trace_events_empty_tracer():
    assert trace_events([]) == []


# ----------------------------------------------------------------------
# End-to-end span trees
# ----------------------------------------------------------------------
def _campaign_spans(world, telemetry, **kwargs):
    run_campaign(world, weeks=_weeks(world), telemetry=telemetry, **kwargs)
    spans = telemetry.tracer.finished_spans()
    assert spans and all(span.duration is not None for span in spans)
    return spans


def test_inline_shard_spans_nest_under_their_week():
    """Every inline shard span hangs off the site phase of its own week."""
    world = repro.build_world(WorldConfig(scale=SMALL_SCALE))
    telemetry = Telemetry()
    spans = _campaign_spans(world, telemetry, shards=2)
    by_id = {span.span_id: span for span in spans}
    shard_spans = [span for span in spans if span.name == "shard"]
    assert shard_spans, "expected inline shard spans"
    for span in shard_spans:
        assert span.category == "shard"
        assert span.pid == telemetry.tracer.pid
        parent = by_id[span.parent_id]
        assert parent.category == "phase" and parent.name == "site"
        assert parent.attrs["week"] == span.attrs["week"]
        grandparent = by_id[parent.parent_id]
        assert grandparent.name == "week"
        assert grandparent.attrs["week"] == span.attrs["week"]
    # Two shards per week, every campaign week.
    per_week = {}
    for span in shard_spans:
        per_week.setdefault(span.attrs["week"], set()).add(span.attrs["shard"])
    assert per_week == {str(week): {0, 1} for week in _weeks(world)}


def test_inline_campaign_trace_is_exportable(tmp_path):
    """The serial engine's span tree exports as a valid Chrome trace."""
    world = repro.build_world(WorldConfig(scale=SMALL_SCALE))
    telemetry = Telemetry()
    _campaign_spans(world, telemetry)
    path = tmp_path / "trace.json"
    write_trace(path, telemetry.tracer)
    events = _assert_valid_trace_document(json.loads(path.read_text()))
    names = {(event["cat"], event["name"]) for event in events}
    assert ("campaign", "campaign") in names
    assert ("campaign", "week") in names
    assert ("phase", "site") in names
    assert ("phase", "attribution") in names
    # The fresh world's plan is built inside the first week.
    plans = [event for event in events if (event["cat"], event["name"]) == ("phase", "plan")]
    assert len(plans) == 1
    plan_args = plans[0]["args"]
    cno_domains = sum(1 for domain in world.domains if domain.population == "cno")
    assert plan_args["ip_version"] == 4
    assert plan_args["populations"] == "cno"
    assert plan_args["domains"] == cno_domains
    assert 0 < plan_args["sites"] <= len(world.sites)
    registry = telemetry.registry
    assert registry.value("pipeline.plan.domains") == cno_domains
    assert registry.value("pipeline.plan.seconds") > 0


# ----------------------------------------------------------------------
# Golden: instrumentation never changes results
# ----------------------------------------------------------------------
def test_instrumented_campaign_is_byte_identical():
    """Same world config, with and without telemetry: identical report."""
    plain_world = repro.build_world(WorldConfig(scale=SMALL_SCALE))
    plain = run_campaign(plain_world, weeks=_weeks(plain_world), shards=2)
    obs_world = repro.build_world(WorldConfig(scale=SMALL_SCALE))
    instrumented = run_campaign(
        obs_world,
        weeks=_weeks(obs_world),
        shards=2,
        telemetry=Telemetry(),
    )
    assert longitudinal_report(plain) == longitudinal_report(instrumented)
    assert plain_world.clock.now == obs_world.clock.now
