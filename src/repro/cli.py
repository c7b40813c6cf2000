"""Command-line interface: ``python -m repro <command>``.

Commands mirror the measurement phases of the paper:

* ``scan``         — one weekly scan from the main vantage point;
                     prints Tables 1-7.
* ``campaign``     — longitudinal snapshots; prints Figures 3/4/8.
* ``distributed``  — 17-vantage distributed run; prints Figure 7.
* ``trace``        — tracebox one provider/group's path (deprecated
                     alias; tracebox sampling is the ``trace`` plugin).
* ``l4s``          — the §9.3 L4S re-marking experiment.
* ``grease``       — the §9.3 ECN greasing study (deprecated alias;
                     greasing is the ``grease`` plugin).

``scan`` and ``campaign`` select measurement plugins with ``--plugins``
(comma-separated; ``--no-plugins`` keeps just the core ``ecn`` scan) —
see docs/plugins.md.  World options (``--scale``/``--seed``/
``--world-cache``) are shared by every world-building subcommand via
one parent parser.

Reports print to stdout; diagnostics (exchange-cache stats, the
``--progress`` heartbeat, obs-output notes, deprecation pointers) go to
stderr, silenced by ``--quiet``.  ``scan`` and ``campaign`` take
``--metrics-out`` / ``--trace-out`` for the telemetry layer
(docs/observability.md).
"""

from __future__ import annotations

import argparse
import re
import sys

import repro
from repro.analysis.report import global_report, longitudinal_report, reference_report
from repro.extensions.greasing import run_greasing_study
from repro.l4s.experiment import run_l4s_experiment
from repro.pipeline.engine import ScanPhaseStats
from repro.tracebox.classify import classify_trace
from repro.tracebox.probe import trace_site
from repro.util.weeks import Week
from repro.web.spec import WorldConfig


def _world_parent() -> argparse.ArgumentParser:
    """The shared world options, hoisted into one parent parser.

    Every subcommand that builds a world inherits these via
    ``parents=[...]`` instead of redeclaring them, so help text,
    defaults and future world options stay in one place.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--scale",
        type=float,
        default=4_000,
        help="world scale: 1 simulated domain = SCALE real domains",
    )
    parent.add_argument("--seed", type=int, default=20230415)
    parent.add_argument(
        "--world-cache",
        metavar="DIR",
        default=None,
        help="snapshot cache directory: the built world is stored as a "
             "compact snapshot keyed on its config/spec fingerprint and "
             "rehydrated on later runs instead of being rebuilt "
             "(docs/architecture.md#world-lifecycle)",
    )
    return parent


def _add_plugin_args(
    parser: argparse.ArgumentParser, *, default: tuple[str, ...]
) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--plugins",
        metavar="LIST",
        default=None,
        help="comma-separated measurement plugins to run (default: "
             f"{','.join(default)}; the core 'ecn' plugin is always "
             "included; see docs/plugins.md)",
    )
    group.add_argument(
        "--no-plugins",
        action="store_true",
        help="run only the core ecn scan (equivalent to --plugins ecn)",
    )
    parser.set_defaults(default_plugins=default)


def _resolve_plugin_args(args) -> "tuple[str, ...] | None":
    """The subcommand's plugin selection; ``None`` after an exit-2 error.

    ``--no-tracebox`` survives as a deprecated alias for dropping the
    ``trace`` plugin from the default selection.
    """
    from repro.plugins.registry import resolve_plugins

    if args.no_plugins:
        names: tuple[str, ...] = ("ecn",)
    elif args.plugins is not None:
        names = tuple(p.strip() for p in args.plugins.split(",") if p.strip())
        if "ecn" not in names:
            names = ("ecn",) + names
    else:
        names = args.default_plugins
    if getattr(args, "no_tracebox", False):
        _note(
            args,
            "note: --no-tracebox is deprecated; use --no-plugins or a "
            "--plugins list without 'trace'",
        )
        names = tuple(n for n in names if n != "trace")
    try:
        return resolve_plugins(names).names
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None


def _add_obs_args(parser: argparse.ArgumentParser, *, progress: bool = True) -> None:
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the run's metrics registry and span summaries as "
             "schema-versioned JSON (docs/observability.md)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write the run's span tree as Chrome trace-event JSON, "
             "loadable in Perfetto or chrome://tracing",
    )
    if progress:
        parser.add_argument(
            "--progress",
            action="store_true",
            help="per-week heartbeat on stderr: weeks done, domain "
                 "throughput, cache hit rate",
        )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress stderr diagnostics (stats lines and the --progress "
             "heartbeat); reports still print to stdout",
    )


def _note(args, message: str) -> None:
    """A stderr diagnostic line, silenced by ``--quiet``."""
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _obs_setup(args):
    """A :class:`repro.obs.Telemetry` when any obs output is requested."""
    if args.metrics_out is None and args.trace_out is None:
        return None
    from repro.obs import Telemetry

    return Telemetry()


def _obs_finish(args, telemetry) -> None:
    """Write ``--metrics-out`` / ``--trace-out`` from the finished run."""
    if telemetry is None:
        return
    from repro.obs.export import write_metrics, write_trace
    from repro.obs.metrics import global_registry

    # World-cache and snapshot metrics accumulate on the process-global
    # registry (repro.web.snapshot instruments acquire_world there);
    # fold them in so one file carries the whole run.
    telemetry.registry.merge(global_registry())
    if args.metrics_out is not None:
        write_metrics(args.metrics_out, telemetry.registry, telemetry.tracer)
        _note(args, f"metrics: {args.metrics_out}")
    if args.trace_out is not None:
        events = write_trace(args.trace_out, telemetry.tracer)
        _note(args, f"trace: {args.trace_out} ({events} events)")


def _build_world(args) -> "repro.World":
    config = WorldConfig(scale=args.scale, seed=args.seed)
    cache_dir = getattr(args, "world_cache", None)
    if cache_dir is None:
        # One-shot process, no cache to warm: skip the snapshot layer
        # (encoding the world would cost ~12% of the build for nothing).
        return repro.build_world(config)
    from repro.web.snapshot import acquire_world

    world, _source = acquire_world(config, cache_dir=cache_dir)
    return world


#: Accepted ``--week`` syntax: ISO week like ``2023-W15`` (case-tolerant).
_WEEK_RE = re.compile(r"(\d{4})-[Ww](\d{1,2})")


def _parse_week(text: str) -> Week:
    """argparse type for ``--week``: a validated ISO week.

    Raising :class:`argparse.ArgumentTypeError` makes argparse print a
    usage-style error and exit 2 — malformed weeks like ``2023-15`` or
    ``2023W15`` used to escape as a bare ``ValueError`` traceback.
    """
    match = _WEEK_RE.fullmatch(text.strip())
    if match is None:
        raise argparse.ArgumentTypeError(
            f"invalid week {text!r}: expected an ISO week like 2023-W15"
        )
    year, week = int(match.group(1)), int(match.group(2))
    if not 1 <= week <= 53:
        raise argparse.ArgumentTypeError(
            f"invalid week {text!r}: week number must be in 1..53"
        )
    return Week(year, week)


def _cmd_scan(args) -> int:
    plugins = _resolve_plugin_args(args)
    if plugins is None:
        return 2
    world = _build_world(args)
    week = args.week if args.week else world.config.reference_week
    telemetry = _obs_setup(args)
    stats = ScanPhaseStats() if telemetry is not None else None
    run = repro.run_weekly_scan(
        world,
        week,
        plugins=plugins,
        backend=args.backend,
        telemetry=telemetry,
        phase_stats=stats,
    )
    ipv6 = None
    if args.ipv6:
        # An explicit --week applies to both families; only the default
        # diverges (the paper's IPv6 measurement ran in a different
        # week than the IPv4 reference snapshot, §6.2).
        ipv6_week = args.week if args.week else world.config.ipv6_week
        ipv6 = repro.run_weekly_scan(
            world,
            ipv6_week,
            ip_version=6,
            populations=("cno",),
            plugins=tuple(n for n in plugins if n != "trace"),
            backend=args.backend,
            telemetry=telemetry,
            phase_stats=stats,
        )
    if telemetry is not None:
        stats.publish(telemetry.registry)
    print(reference_report(run, ipv6))
    _obs_finish(args, telemetry)
    return 0


def _cmd_campaign(args) -> int:
    if args.cadence < 1:
        print(f"--cadence must be >= 1, got {args.cadence}", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.shards is None and args.checkpoint_dir is not None:
        print("--checkpoint-dir requires --shards", file=sys.stderr)
        return 2
    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    plugins = _resolve_plugin_args(args)
    if plugins is None:
        return 2
    world = _build_world(args)
    stats = ScanPhaseStats()
    telemetry = _obs_setup(args)
    progress = None
    if args.progress and not args.quiet:
        from repro.obs import CampaignProgress
        from repro.pipeline.campaign import campaign_weeks

        progress = CampaignProgress(len(campaign_weeks(world, args.cadence)))
    campaign = repro.run_campaign(
        world,
        cadence_weeks=args.cadence,
        plugins=plugins,
        shards=args.shards,
        backend=args.backend,
        exchange_cache=not args.no_exchange_cache,
        phase_stats=stats,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        telemetry=telemetry,
        progress=progress,
    )
    print(longitudinal_report(campaign))
    attempts = stats.exchange_cache_hits + stats.exchange_cache_misses
    if attempts or stats.exchange_cache_uncacheable:
        _note(
            args,
            f"exchange cache: {stats.exchange_cache_hits} hits / "
            f"{stats.exchange_cache_misses} misses / "
            f"{stats.exchange_cache_uncacheable} uncacheable "
            f"({100 * stats.exchange_cache_hit_rate:.1f}% hit rate)",
        )
    _obs_finish(args, telemetry)
    return 0


def _cmd_distributed(args) -> int:
    world = _build_world(args)
    dist_v4 = repro.run_distributed(world, ip_version=4)
    dist_v6 = repro.run_distributed(world, ip_version=6) if args.ipv6 else None
    print(global_report(world, dist_v4, dist_v6))
    return 0


def _cmd_trace(args) -> int:
    _note(
        args,
        "note: 'trace' is a deprecated alias; tracebox sampling now runs "
        "as a plugin — try: repro scan --plugins ecn,trace",
    )
    world = _build_world(args)
    week = args.week if args.week else world.config.reference_week
    sites = [
        s
        for s in world.sites
        if s.provider.name == args.provider
        and (args.group is None or s.group.key == args.group)
    ]
    if not sites:
        print(f"no sites for provider {args.provider!r}", file=sys.stderr)
        return 1
    site = sites[0]
    result = trace_site(world, site, week)
    for hop in result.hops:
        if hop.responded:
            org = world.asorg.org_for(hop.router_asn)
            print(
                f"ttl={hop.ttl:2d} {hop.router_address:<16s} AS{hop.router_asn:<6d} "
                f"{org:<26s} quote: {hop.quote_ecn.short_name()}"
            )
        else:
            print(f"ttl={hop.ttl:2d} * (timeout)")
    summary = classify_trace(result)
    print(f"impairment: {summary.impairment.value}")
    if summary.culprit_asn is not None:
        print(f"culprit: AS{summary.culprit_asn} ({world.asorg.org_for(summary.culprit_asn)})")
    elif summary.changes:
        a, b = summary.culprit_candidates
        print(f"culprit: ambiguous (AS{a} or AS{b})")
    return 0


def _cmd_l4s(args) -> int:
    healthy = run_l4s_experiment(remark_classic=False, rounds=args.rounds)
    remarked = run_l4s_experiment(remark_classic=True, rounds=args.rounds)
    print(f"{'scenario':10s} {'classic':>9s} {'scalable':>9s} {'share':>7s}")
    for name, run in (("healthy", healthy), ("remarked", remarked)):
        print(
            f"{name:10s} {run.classic_delivered:9d} {run.scalable_delivered:9d} "
            f"{100 * run.classic_share:6.1f}%"
        )
    penalty = 1 - remarked.classic_delivered / max(1, healthy.classic_delivered)
    print(f"classic throughput penalty from re-marking: {100 * penalty:.0f} %")
    return 0


def _cmd_grease(args) -> int:
    _note(
        args,
        "note: 'grease' is a deprecated alias; greasing now runs as a "
        "plugin — try: repro scan --plugins ecn,grease",
    )
    world = _build_world(args)
    report = run_greasing_study(world, max_sites=args.max_sites)
    print(f"hosts scanned:            {report.hosts_scanned}")
    print(f"visible without grease:   {report.visible_without_grease}")
    print(f"visible with grease:      {report.visible_with_grease}")
    print(f"visibility gain:          {100 * report.visibility_gain:.0f} % of hosts")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'ECN with QUIC: Challenges in the Wild' (IMC '23)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    world_parent = _world_parent()

    scan = sub.add_parser(
        "scan", help="weekly scan; prints Tables 1-7", parents=[world_parent]
    )
    scan.add_argument(
        "--week",
        type=_parse_week,
        help="ISO week like 2023-W15 (applies to the IPv4 and, when "
             "given, the --ipv6 leg; defaults are the reference week "
             "and the IPv6 measurement week respectively)",
    )
    scan.add_argument("--ipv6", action="store_true", help="add the IPv6 run")
    _add_plugin_args(scan, default=("ecn", "trace"))
    scan.add_argument(
        "--no-tracebox",
        action="store_true",
        help="deprecated: drop the 'trace' plugin (use --no-plugins or a "
             "--plugins list without 'trace')",
    )
    scan.add_argument(
        "--backend",
        choices=("objects", "store"),
        default="objects",
        help="results layer for the run (golden-identical either way; "
             "single scans default to eager observation objects)",
    )
    _add_obs_args(scan, progress=False)
    scan.set_defaults(func=_cmd_scan)

    campaign = sub.add_parser(
        "campaign", help="longitudinal Figures 3/4/8", parents=[world_parent]
    )
    campaign.add_argument(
        "--cadence", type=int, default=12, help="weeks between scans (>= 1)"
    )
    _add_plugin_args(campaign, default=("ecn",))
    campaign.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard the site phase in-process over deterministic per-site "
             "RNG substreams (N >= 1; order-independent and required for "
             "--checkpoint-dir; not a speed-up — shards run one after "
             "another; see docs/architecture.md)",
    )
    campaign.add_argument(
        "--backend",
        choices=("store", "objects"),
        default="store",
        help="results layer: the columnar campaign store (default; "
             "golden-identical, far cheaper attribution) or eager "
             "per-domain observation objects",
    )
    campaign.add_argument(
        "--no-exchange-cache",
        action="store_true",
        help="run every site exchange fresh instead of replaying cached "
             "outcomes (the replay is byte-identical; this exists for "
             "timing comparisons and debugging)",
    )
    campaign.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="persist each completed week's results under DIR (atomic, "
             "checksummed; requires --shards) so an "
             "interrupted campaign can --resume without recomputing "
             "finished weeks",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="rehydrate weeks already checkpointed under --checkpoint-dir; "
             "resumed campaigns are byte-identical to uninterrupted ones",
    )
    _add_obs_args(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    distributed = sub.add_parser(
        "distributed", help="global Figure 7", parents=[world_parent]
    )
    distributed.add_argument("--ipv6", action="store_true")
    distributed.set_defaults(func=_cmd_distributed)

    trace = sub.add_parser(
        "trace",
        help="tracebox one provider's path (deprecated; see the trace plugin)",
        parents=[world_parent],
    )
    trace.add_argument("--provider", required=True)
    trace.add_argument("--group")
    trace.add_argument("--week", type=_parse_week, help="ISO week like 2023-W15")
    trace.add_argument("--quiet", action="store_true", help="suppress stderr notes")
    trace.set_defaults(func=_cmd_trace)

    l4s = sub.add_parser("l4s", help="§9.3 L4S re-marking experiment")
    l4s.add_argument("--rounds", type=int, default=200)
    l4s.set_defaults(func=_cmd_l4s)

    grease = sub.add_parser(
        "grease",
        help="§9.3 ECN greasing study (deprecated; see the grease plugin)",
        parents=[world_parent],
    )
    grease.add_argument("--max-sites", type=int, default=120)
    grease.add_argument("--quiet", action="store_true", help="suppress stderr notes")
    grease.set_defaults(func=_cmd_grease)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
