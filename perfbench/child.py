"""One fresh-process run of a benchmark workload.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py MODE WORKLOAD SEED SPAWN_TS OUTDIR [CACHE_DIR]

``MODE`` is one of

* ``run``    — the workload as a user runs it, tracing off;
* ``traced`` — the same workload composed from the public calls, each
  in a span, writing the Chrome trace and the per-layer table;
* ``setup``  — the set-up only: ``import repro``, plus (scan-warm)
  filling the snapshot cache in ``CACHE_DIR``.

``SPAWN_TS`` is the parent's ``perf_counter()`` just before it spawned
this process (CLOCK_MONOTONIC, shared between processes on Linux), so
wall times run from process spawn to the report being written.  The
last stdout line is one JSON object for the parent.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import layers

SCALE = 1000
MAIN = "main-aachen"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    """User+sys CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _config(seed: int):
    from repro.web.spec import WorldConfig

    return WorldConfig(scale=SCALE, seed=seed)


# ----------------------------------------------------------------------
# Untraced runs: the user's path, as the CLI handlers call it.
# ----------------------------------------------------------------------
def run_campaign_cold(seed, cache_dir):
    """``repro campaign --cadence 4``: serial engine, store backend."""
    import repro
    from repro.analysis.report import longitudinal_report
    from repro.pipeline.engine import ScanPhaseStats

    world = repro.build_world(_config(seed))
    campaign = repro.run_campaign(
        world, cadence_weeks=4, plugins=("ecn",), backend="store",
        phase_stats=ScanPhaseStats(),
    )
    return longitudinal_report(campaign), {"world": world, "campaign": campaign}


def run_scan_warm(seed, cache_dir):
    """``repro scan --ipv6 --world-cache DIR`` on a filled cache."""
    import repro
    from repro.analysis.report import reference_report
    from repro.web.snapshot import acquire_world

    world, source = acquire_world(_config(seed), cache_dir=cache_dir)
    if source != "disk":
        raise RuntimeError(f"snapshot cache missed: world came from {source!r}")
    run = repro.run_weekly_scan(
        world, world.config.reference_week, plugins=("ecn", "trace"), backend="objects"
    )
    ipv6 = repro.run_weekly_scan(
        world, world.config.ipv6_week, ip_version=6, populations=("cno",),
        plugins=("ecn",), backend="objects",
    )
    return reference_report(run, ipv6), {"world": world, "run": run, "ipv6": ipv6}


def run_distributed(seed, cache_dir):
    """``repro distributed --ipv6``."""
    import repro
    from repro.analysis.report import global_report

    world = repro.build_world(_config(seed))
    dist_v4 = repro.run_distributed(world, ip_version=4)
    dist_v6 = repro.run_distributed(world, ip_version=6)
    return global_report(world, dist_v4, dist_v6), {
        "world": world, "v4": dist_v4, "v6": dist_v6,
    }


UNTRACED = {
    "campaign-cold": run_campaign_cold,
    "scan-warm": run_scan_warm,
    "distributed": run_distributed,
}


# ----------------------------------------------------------------------
# Traced runs: the same work composed from the public calls.
# ----------------------------------------------------------------------
class Traced:
    """Span helpers shared by the traced workloads of one run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts = {
            "pipeline.plan_domains": 0,
            "pipeline.events": 0,
            "web.rss_mb": 0.0,
            "pipeline.plan_rss_mb": 0.0,
        }

    def span(self, name, **attrs):
        return self.tracer.span(name, "layer", **attrs)

    def world_sections(self, world, vantage_ids):
        with self.span("web.sections"):
            world.ensure_site_attribution()
            for vantage_id in vantage_ids:
                world.ensure_routes(vantage_id)

    def plan(self, engine, ip_version, populations, first_week):
        """Plan, columns and trigger index of one (family, populations)."""
        from repro.store.columns import plan_columns

        before = _maxrss_mb()
        with self.span("pipeline.plan", ip_version=ip_version):
            plan = engine.plan_for(ip_version, populations)
        with self.span("store.columns", ip_version=ip_version):
            plan_columns(plan)
        # The first site_events call of a plan builds its trigger index.
        with self.span("pipeline.trigger_index", ip_version=ip_version):
            engine.site_events(
                first_week, MAIN, ip_version=ip_version, populations=populations
            )
        self.counts["pipeline.plan_domains"] += len(plan.protos)
        self.counts["pipeline.plan_rss_mb"] += _maxrss_mb() - before

    def week(self, engine, week, *, plugins, **kwargs):
        """``run_week`` split by ScanPhaseStats, then the plugin finalizers.

        The finalizers (tracebox) are the last step of ``run_week``;
        calling them right after it is the same work in the same order,
        and gives ``plugins.finalize`` its own span.
        """
        from repro.pipeline.engine import ScanPhaseStats
        from repro.plugins.registry import resolve_plugins

        finalizers = resolve_plugins(plugins).finalizers
        core = tuple(name for name in plugins if name not in {p.name for p in finalizers})
        stats = ScanPhaseStats()
        with self.span("pipeline.week", week=str(week)) as week_span:
            run = engine.run_week(week, MAIN, plugins=core, phase_stats=stats, **kwargs)
        layers.add_week_phases(self.tracer, week_span, stats)
        for plugin in finalizers:
            with self.span("plugins.finalize", plugin=plugin.name):
                plugin.finalize_run(engine.world, run, week, MAIN, run.ip_version)
        self.counts["pipeline.events"] += len(run.site_records)
        return run

    def exchange_counts(self, engine):
        stats = engine.exchange_cache.stats
        total = stats.hits + stats.misses + stats.uncacheable
        self.counts["exchange.replayed"] = stats.hits
        self.counts["exchange.fresh"] = stats.misses
        self.counts["exchange.uncacheable"] = stats.uncacheable
        self.counts["exchange.replay_ratio"] = stats.hits / total if total else 0.0


def traced_campaign_cold(t: Traced, seed, cache_dir):
    import repro
    from repro.analysis import figures
    from repro.analysis.report import longitudinal_report
    from repro.pipeline.campaign import Campaign, campaign_weeks

    before = _maxrss_mb()
    with t.span("web.build"):
        world = repro.build_world(_config(seed))
    engine = world.scan_engine()
    t.world_sections(world, [MAIN])
    t.counts["web.rss_mb"] = _maxrss_mb() - before
    weeks = campaign_weeks(world, 4)
    t.plan(engine, 4, ("cno",), weeks[0])
    campaign = Campaign()
    for week in weeks:
        campaign.add_run(
            t.week(engine, week, plugins=("ecn",), populations=("cno",), backend="store")
        )
    t.exchange_counts(engine)
    targets = [
        (figures, name, f"analysis.{name}") for name in ("figure3", "figure4", "figure8")
    ]
    with layers.wrapped(t.tracer, targets), t.span("analysis.report"):
        text = longitudinal_report(campaign)
    return text, {"world": world, "campaign": campaign}


def traced_scan_warm(t: Traced, seed, cache_dir):
    from repro.analysis import tables
    from repro.analysis.report import reference_report
    from repro.web.snapshot import acquire_world

    before = _maxrss_mb()
    with t.span("web.snapshot_decode"):
        world, source = acquire_world(_config(seed), cache_dir=cache_dir)
    if source != "disk":
        raise RuntimeError(f"snapshot cache missed: world came from {source!r}")
    engine = world.scan_engine()
    t.world_sections(world, [MAIN])
    t.counts["web.rss_mb"] = _maxrss_mb() - before
    config = world.config
    t.plan(engine, 4, ("cno", "toplist"), config.reference_week)
    run = t.week(
        engine, config.reference_week, plugins=("ecn", "trace"),
        populations=("cno", "toplist"), backend="objects",
    )
    t.plan(engine, 6, ("cno",), config.ipv6_week)
    ipv6 = t.week(
        engine, config.ipv6_week, plugins=("ecn",), ip_version=6,
        populations=("cno",), backend="objects",
    )
    t.exchange_counts(engine)
    targets = [(tables, f"table{i}", "analysis.tables") for i in range(1, 8)]
    with layers.wrapped(t.tracer, targets), t.span("analysis.report"):
        text = reference_report(run, ipv6)
    return text, {"world": world, "run": run, "ipv6": ipv6}


def traced_distributed(t: Traced, seed, cache_dir):
    import repro
    from repro.analysis import figures
    from repro.analysis.report import global_report
    from repro.pipeline import vantage

    before = _maxrss_mb()
    with t.span("web.build"):
        world = repro.build_world(_config(seed))
    engine = world.scan_engine()
    t.world_sections(world, list(world.vantages))
    t.counts["web.rss_mb"] = _maxrss_mb() - before
    config = world.config
    results = {}
    # run_distributed's own work beyond the main-vantage week and the
    # cloud legs is the per-IP dedup; its cloud legs are run_vantage.
    wrap = [(vantage, "run_vantage", "pipeline.vantage")]
    for ip_version, week in ((4, config.reference_week), (6, config.ipv6_week)):
        t.plan(engine, ip_version, ("cno",), week)
        main_run = t.week(
            engine, week, plugins=("ecn",), ip_version=ip_version, populations=("cno",)
        )
        with layers.wrapped(t.tracer, wrap), t.span("pipeline.dedup"):
            results[ip_version] = repro.run_distributed(
                world, ip_version=ip_version, main_run=main_run
            )
    t.exchange_counts(engine)
    with layers.wrapped(t.tracer, [(figures, "figure7", "analysis.figure7")]), \
            t.span("analysis.report"):
        text = global_report(world, results[4], results[6])
    return text, {"world": world, "v4": results[4], "v6": results[6]}


def cloud_counts(result) -> dict:
    """Connections the cloud vantages attempted, and the connected share."""
    cloud = [
        connection
        for runs in (result["v4"], result["v6"])
        for vantage_id, run in runs.items()
        if vantage_id != MAIN
        for connection in run.results.values()
    ]
    connected = sum(1 for connection in cloud if connection.connected)
    return {
        "quic.connections": len(cloud),
        "quic.connected_ratio": connected / len(cloud) if cloud else 0.0,
    }


TRACED = {
    "campaign-cold": traced_campaign_cold,
    "scan-warm": traced_scan_warm,
    "distributed": traced_distributed,
}


# ----------------------------------------------------------------------
# Output checks (run after the report is written; not timed)
# ----------------------------------------------------------------------
def rows_and_checks(workload, result) -> tuple[int, list[str]]:
    """Observation rows the workload produced, and failed paper-band checks."""
    from repro.analysis.classify import ValidationClass
    from repro.analysis.figures import figure3, figure7
    from repro.analysis.tables import table1, table5

    failures = []
    if workload == "campaign-cold":
        campaign = result["campaign"]
        rows = sum(len(run.observations) for run in campaign.runs)
        weeks = len(figure3(campaign))
        if weeks != 13:
            failures.append(f"Figure 3 has {weeks} weeks, expected 13")
    elif workload == "scan-warm":
        run, ipv6 = result["run"], result["ipv6"]
        rows = len(run.observations) + len(ipv6.observations)
        cno = {(r.scope, r.unit): r for r in table1(run)}[("c/n/o", "Domains")]
        if not 4.0 < cno.mirroring_pct < 7.5:
            failures.append(
                f"Table 1 c/n/o mirroring {cno.mirroring_pct:.2f} % not in 4.0-7.5 %"
            )
        table = table5(run, ipv6)
        v4 = {cls: cells["ipv4"].domains for cls, cells in table.items()}
        v6 = {cls: cells["ipv6"].domains for cls, cells in table.items()}
        if not (
            v4[ValidationClass.NO_MIRRORING]
            > v4[ValidationClass.UNDERCOUNT]
            > v4[ValidationClass.REMARK_ECT1]
            > v4[ValidationClass.CAPABLE]
            > v4.get(ValidationClass.ALL_CE, 0)
        ):
            failures.append("Table 5 IPv4 class ordering does not hold")
        if not v6[ValidationClass.CAPABLE] < 2 * v4[ValidationClass.CAPABLE]:
            failures.append("Table 5 IPv6 capable >= 2x IPv4 capable")
    else:
        world, v4, v6 = result["world"], result["v4"], result["v6"]
        main_rows = sum(
            len(world.scan_engine().plan_for(ip_version, ("cno",)).protos)
            for ip_version in (4, 6)
        )
        site_rows = sum(len(run.results) for runs in (v4, v6) for run in runs.values())
        rows = main_rows + site_rows
        points = figure7(world, v4, v6)
        if len(points) != len(world.vantages):
            failures.append(
                f"Figure 7 has {len(points)} points for {len(world.vantages)} vantages"
            )
        for point in points:
            pct = point.pct_capable_v4
            if pct is None or not 0.05 < pct < 0.6:
                failures.append(
                    f"Figure 7 {point.vantage_id}: pct_capable_v4 {pct} not in 0.05-0.6"
                )
    return rows, failures


# ----------------------------------------------------------------------
def main(argv) -> int:
    mode, workload, seed, spawn, outdir = argv[:5]
    cache_dir = argv[5] if len(argv) > 5 else None
    seed, spawn, outdir = int(seed), float(spawn), Path(outdir)
    started = perf_counter()
    import repro  # noqa: F401  (the timed import)

    imported = perf_counter()
    out = {"mode": mode, "workload": workload, "seed": seed, "scale": SCALE,
           "rundir": str(outdir)}
    if mode == "setup":
        if cache_dir is not None:
            from repro.web.snapshot import acquire_world

            _world, source = acquire_world(_config(seed), cache_dir=cache_dir)
            if source != "cold":
                raise RuntimeError(f"set-up expected a cold fill, got {source!r}")
        out["setup_s"] = perf_counter() - spawn
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "traced":
        from repro.obs.spans import Tracer

        tracer = Tracer()
        layers.startup_spans(tracer, spawn, started, imported)
        traced = Traced(tracer)
        with tracer.span("bench.run", "bench", workload=workload, seed=seed):
            text, result = TRACED[workload](traced, seed, cache_dir)
    else:
        text, result = UNTRACED[workload](seed, cache_dir)
    report = (text + "\n").encode("utf-8")
    with open(outdir / f"report-{mode}.txt", "wb") as handle:
        handle.write(report)
    out["wall_s"] = perf_counter() - spawn
    out["cpu_s"] = _cpu_s()
    out["peak_rss_mb"] = _maxrss_mb()
    out["digest"] = hashlib.sha256(report).hexdigest()
    if tracer is not None:
        from repro.obs.export import write_trace

        metrics = layers.layer_seconds(tracer.spans, out["wall_s"])
        metrics.update(traced.counts)
        if workload == "distributed":
            metrics.update(cloud_counts(result))
        out["layers"] = metrics
        write_trace(str(outdir / "trace.json"), tracer)
    out["rows"], out["check_failures"] = rows_and_checks(workload, result)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    except Exception:  # the parent counts this run as failed
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip tearing down a few hundred MB of objects: the run ended when
    # its report was written.
    os._exit(code)
