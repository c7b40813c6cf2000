"""Site-first scan engine: weekly scans in O(sites), not O(domains).

The paper's methodology (§4.4) rests on the observation that hosts
sharing one IP behave identically: it scans per IP and attributes the
outcome to every domain the IP serves.  The original per-domain loop
exploited this only for the QUIC exchange itself — ASN lookup, org
mapping, policy resolution and DNS re-resolution still ran once per
domain per week, dominating wall time at scale.

The engine splits a weekly run into two phases (docs/architecture.md):

1. **Site phase** — everything expensive happens once per
   (site, week, vantage, family): policy resolution (memoized on the
   world), the QUIC/TCP exchanges, and — at world build time — ASN/org
   attribution.  Scans are issued in exactly the order the per-domain
   reference loop would have triggered them, so the shared network
   RNG stream and virtual clock advance identically and results are
   byte-for-byte equal to the reference semantics
   (:func:`repro.pipeline.runs.run_weekly_scan_reference`).
2. **Attribution phase** — per-site results fan out to domains through
   bindings precomputed in a :class:`ScanPlan` (resolution, org,
   site attachment are week-invariant for a given IP family).  The
   per-domain work is a tuple-splat construction plus a few attribute
   stores; no string parsing, no trie walks, no policy evaluation.

The site phase is emitted pre-ordered (no per-week sort): a
week-invariant QUIC trigger index — prefix-minimum records over the
store's rank-sorted :class:`~repro.store.columns.SiteSegment` arrays —
merges with the sites' first attributed positions in one linear pass.
Exchanges route through the outcome replay cache (:mod:`repro.exchange`):
when a site-week's derived inputs repeat (same behaviour epoch, client
config, route epoch, response) the recorded result and clock trajectory
replay byte-identically instead of re-simulating the connection.

:meth:`ScanEngine.site_events` exposes the ordered site phase as data.
:class:`~repro.pipeline.sharding.ShardedScanEngine` partitions it into
inline shards, and campaign checkpoints replay it from recorded
entries; the ``site_rng`` mode below is what makes that sound:

* ``"shared"`` (default) — exchanges draw from the world's one
  sequential network RNG stream and advance the one shared clock, in
  reference trigger order.  Byte-identical to the per-domain loop.
* ``"per-site"`` — every site event draws from an independent
  :class:`~repro.util.rng.RngStream` seeded deterministically from
  (world seed, week, vantage, family, site, kind) and runs against its
  own virtual clock.  Exchanges become order-independent, so any
  partition of the site phase — serial, any shard count, any shard
  order — produces identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from time import perf_counter
from typing import Final, Sequence

from repro.exchange import (
    ExchangeCache,
    ExchangeOutcome,
    RecordingClock,
    replay_outcome,
)
from repro.exchange.core import (
    quic_exchange_inputs,
    run_quic_exchange,
    run_tcp_exchange,
    tcp_exchange_inputs,
)
from repro.netsim.clock import Clock
from repro.obs.metrics import safe_ratio
from repro.pipeline.runs import WeeklyRun, ensure_site_record
from repro.plugins.base import PLUGIN_KIND_BASE, VariantBinding
from repro.plugins.registry import (
    DEFAULT_PLUGINS,
    PluginSelection,
    binding_for_kind,
    resolve_plugins,
    stream_tag,
)
from repro.scanner.quic_scan import QuicScanConfig, quic_client_config, scan_site_quic
from repro.scanner.results import DomainObservation
from repro.scanner.tcp_scan import TcpScanConfig, scan_site_tcp, tcp_client_config
from repro.store.columns import plan_columns
from repro.util.rng import RngStream
from repro.util.weeks import Week
from repro.web.world import Site, World, domain_address

#: Event kinds of the site phase, ordered as the reference loop fires
#: them at one domain position (QUIC before TCP).
QUIC_EVENT = 0
TCP_EVENT = 1

_KIND_NAMES: Final = {QUIC_EVENT: "quic", TCP_EVENT: "tcp"}


def _kind_label(kind: int) -> str:
    """Diagnostic label of an event kind (core name or plugin tag)."""
    name = _KIND_NAMES.get(kind)
    if name is not None:
        return name
    try:
        return stream_tag(kind)
    except ValueError:
        return str(kind)


class ShardResultMissing(RuntimeError):
    """A site-phase merge is missing results for scheduled events.

    Raised by the central merge — sharded execution or checkpoint
    replay — *before* any record is mutated, naming exactly which
    ``(site_index, kind)`` entries are absent (and, when the caller
    knows the partition, which shard owned them), instead of surfacing
    as a bare ``KeyError`` mid-merge.
    """

    def __init__(
        self,
        missing: Sequence[tuple[int, int]],
        *,
        source: str = "site-phase merge",
        shard_of=None,
    ):
        self.missing = tuple(missing)
        shown = ", ".join(
            f"(site {site_index}, {_kind_label(kind)}"
            + (f", shard {shard_of(site_index)}" if shard_of is not None else "")
            + ")"
            for site_index, kind in self.missing[:8]
        )
        if len(self.missing) > 8:
            shown += f", ... {len(self.missing) - 8} more"
        super().__init__(
            f"{source} is missing {len(self.missing)} of the scheduled "
            f"site-event results: {shown}"
        )


@dataclass(slots=True)
class SitePlan:
    """Week-invariant bindings of one site for one (family, populations).

    ``positions`` index into the run's observation list (world order);
    ``ranks`` are the domains' QUIC adoption thresholds; ``names`` feed
    the scan authority (the reference loop used the triggering domain).
    """

    site_index: int
    address: str
    positions: list[int] = field(default_factory=list)
    ranks: list[float] = field(default_factory=list)
    names: list[str] = field(default_factory=list)


@dataclass(slots=True)
class SiteEvent:
    """One scheduled per-site exchange of the site phase."""

    position: int  # observation position of the triggering domain
    kind: int  # QUIC_EVENT | TCP_EVENT | a registered plugin-variant kind
    site_index: int
    address: str  # family address the triggering domain resolved to
    authority_domain: str


def _emit_quic_trigger(trigger: tuple, share: float, quic_capable: dict, append) -> None:
    """Append the QUIC event of one trigger candidate if it fires.

    A candidate fires when the weekly share strictly exceeds its
    activation rank but not its deactivation rank (at which point an
    earlier position of the same site takes over), and the site is
    QUIC-capable from this vantage.
    """
    position, site_index, address, name, rank_on, rank_off = trigger
    if rank_on < share and rank_off >= share and quic_capable[site_index]:
        append(SiteEvent(position, QUIC_EVENT, site_index, address, name))


@dataclass
class ScanPlan:
    """Precomputed attribution for one (ip family, populations) pair."""

    ip_version: int
    populations: tuple[str, ...]
    #: Positional constructor args for every :class:`DomainObservation`.
    protos: list[tuple]
    #: Site plans ordered by first attributed observation position.
    sites: list[SitePlan]
    #: Week-invariant columnar layout (lazily built by
    #: :func:`repro.store.columns.plan_columns`; cached here so every
    #: store-backed run of a campaign shares one column set).
    columns: "object | None" = None
    #: Week-invariant QUIC trigger index: position-sorted candidate
    #: tuples ``(position, site_index, address, name, rank_on,
    #: rank_off)`` derived from the columns' rank-sorted
    #: :class:`~repro.store.columns.SiteSegment` arrays.  At a weekly
    #: share exactly one candidate per site satisfies
    #: ``rank_on < share <= rank_off`` — its position is where the
    #: site's QUIC exchange fires — so the site phase emits events
    #: pre-ordered with no per-week sort.
    quic_triggers: "list[tuple] | None" = None


@dataclass
class ScanPhaseStats:
    """Accumulated wall-time split of weekly runs (pass to ``run_week``).

    ``site_phase_seconds`` covers the per-site exchanges,
    ``attribution_seconds`` the per-domain materialisation/fan-out
    (object path) or the O(sites) store recording (store path).
    ``analysis_seconds`` is filled by callers that time an analysis
    pass over the finished runs — the engine never runs analysis.

    The ``exchange_cache_*`` counters account the replay cache
    (:mod:`repro.exchange`) over the covered site phases: ``hits``
    replayed a cached outcome, ``misses`` ran fresh and populated the
    cache, ``uncacheable`` ran fresh because the path may draw
    randomness.
    """

    site_phase_seconds: float = 0.0
    attribution_seconds: float = 0.0
    analysis_seconds: float = 0.0
    exchange_cache_hits: int = 0
    exchange_cache_misses: int = 0
    exchange_cache_uncacheable: int = 0

    @property
    def exchange_cache_hit_rate(self) -> float:
        # Registry convention: derived ratios are 0.0 on an empty
        # denominator (repro.obs.metrics.safe_ratio).
        return safe_ratio(
            self.exchange_cache_hits,
            self.exchange_cache_hits + self.exchange_cache_misses,
        )

    def publish(self, registry) -> None:
        """Publish this split into a :class:`MetricsRegistry`.

        The registry namespace (docs/observability.md) supersedes the
        ad-hoc stdout prints: phase seconds land as gauges under
        ``campaign.phase.*``, cache counters under
        ``campaign.exchange_cache.*``, with the hit rate as a derived
        ratio over the counters.
        """
        registry.gauge("campaign.phase.site_seconds").set(self.site_phase_seconds)
        registry.gauge("campaign.phase.attribution_seconds").set(self.attribution_seconds)
        registry.gauge("campaign.phase.analysis_seconds").set(self.analysis_seconds)
        registry.add_counter("campaign.exchange_cache.hits", self.exchange_cache_hits)
        registry.add_counter("campaign.exchange_cache.misses", self.exchange_cache_misses)
        registry.add_counter(
            "campaign.exchange_cache.uncacheable", self.exchange_cache_uncacheable
        )
        registry.add_counter(
            "campaign.exchange_cache.attempts",
            self.exchange_cache_hits + self.exchange_cache_misses,
        )
        registry.ratio(
            "campaign.exchange_cache.hit_rate",
            "campaign.exchange_cache.hits",
            "campaign.exchange_cache.attempts",
        )

    def merge_cache_counters(self, other: "ScanPhaseStats") -> None:
        """Fold another split's exchange-cache counters into this one."""
        self.exchange_cache_hits += other.exchange_cache_hits
        self.exchange_cache_misses += other.exchange_cache_misses
        self.exchange_cache_uncacheable += other.exchange_cache_uncacheable


class ScanEngine:
    """Runs weekly scans site-first against one :class:`World`.

    Plans cache address bindings, org attribution and per-site domain
    lists per (family, populations); create the engine via
    :meth:`World.scan_engine` so campaigns share one instance.  Call
    :meth:`invalidate` after mutating the world's resolver, prefix table
    or domain set post-build: a plan reads the resolver's explicit
    records only when it is built.

    ``exchange_cache`` (default on) routes every site exchange through
    the outcome replay cache (:mod:`repro.exchange`): an exchange whose
    derived inputs repeat — same behaviour epoch, client config, route
    epoch, response — replays the recorded result and clock trajectory
    instead of re-simulating, byte-identically (golden-tested in
    ``tests/test_exchange_golden.py``).  Pass ``exchange_cache=False``
    to force every exchange to run fresh.
    """

    #: The ``site_rng`` mode :meth:`run_week` resolves ``None`` to.
    #: The sharded engine overrides this with ``"per-site"`` —
    #: shared-stream semantics cannot be partitioned.
    default_site_rng = "shared"

    def __init__(self, world: "World", *, exchange_cache: bool = True):
        self.world = world
        self._plans: dict[tuple[int, tuple[str, ...]], ScanPlan] = {}
        self.exchange_cache: ExchangeCache | None = (
            ExchangeCache() if exchange_cache else None
        )
        #: Optional :class:`repro.obs.Telemetry`.  ``None`` (the
        #: default) keeps every hot path branch-free except one
        #: attribute test per week; campaigns set and restore it.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        self._plans.clear()
        # Cached outcomes key on objects a world mutation may replace
        # (policies, routes, site identities) — drop them with the plans.
        if self.exchange_cache is not None:
            self.exchange_cache.clear()

    def plan_for(self, ip_version: int, populations: Sequence[str]) -> ScanPlan:
        key = (ip_version, tuple(populations))
        plan = self._plans.get(key)
        if plan is None:
            telemetry = self.telemetry
            if telemetry is None:
                plan = self._build_plan(*key)
            else:
                plan = self._build_plan_traced(telemetry, *key)
            self._plans[key] = plan
        return plan

    def _build_plan_traced(
        self, telemetry, ip_version: int, populations: tuple[str, ...]
    ) -> ScanPlan:
        """:meth:`_build_plan` inside a ``plan`` phase span + registry metrics."""
        tracer = telemetry.tracer
        span = tracer.begin(
            "plan", "phase", ip_version=ip_version, populations=",".join(populations)
        )
        start = perf_counter()
        plan = self._build_plan(ip_version, populations)
        elapsed = perf_counter() - start
        span.attrs["domains"] = len(plan.protos)
        span.attrs["sites"] = len(plan.sites)
        tracer.end(span)
        registry = telemetry.registry
        seconds = registry.gauge("pipeline.plan.seconds")
        seconds.set(seconds.value + elapsed)
        registry.add_counter("pipeline.plan.domains", len(plan.protos))
        return plan

    def _build_plan(self, ip_version: int, populations: tuple[str, ...]) -> ScanPlan:
        """One pass over the domain table: protos and site plans together.

        A domain's address comes straight from the domain/site tables
        (:func:`~repro.web.world.domain_address`, the rule the lazy DNS
        section derives its records from), so planning materialises no
        DNS record.  Names with an explicitly added resolver record are
        the exception: that record is authoritative and may point the
        domain at another site, at an unregistered IP or nowhere.

        Each attributed domain is appended to its site's plan in the
        same pass, so sites come out ordered by first attributed
        position and every site's positions ascend.
        """
        world = self.world
        # Attribution is a lazy world section; the plan bakes Site.org
        # into its protos, so materialise it before the first walk.
        world.ensure_site_attribution()
        explicit = world.resolver.explicit_records
        site_by_ip = world.site_by_ip
        sites = world.sites
        protos: list[tuple] = []
        ordered: list[SitePlan] = []
        #: site index -> (its plan, its org)
        by_site: dict[int, tuple[SitePlan, str]] = {}
        for domain in world.domains:
            if domain.population not in populations:
                continue
            position = len(protos)
            name = domain.name
            record = explicit.get(name) if explicit else None
            if record is not None:
                address = record.a if ip_version == 4 else record.aaaa
                site = None if address is None else site_by_ip(address)
            elif domain.site_index >= 0:
                site = sites[domain.site_index]
                address = domain_address(domain, site, ip_version)
            else:
                address = None
            if address is None:
                protos.append((name, domain.population, domain.lists, domain.parked, False))
                continue
            if site is None:  # defensive: IP without a registered host
                protos.append(
                    (name, domain.population, domain.lists, domain.parked, True, address)
                )
                continue
            entry = by_site.get(site.index)
            if entry is None:
                org = (
                    site.org
                    if site.asn is not None
                    else world.asorg.org_for(world.prefixes.lookup(site.ip))
                )
                entry = by_site[site.index] = (SitePlan(site.index, address), org)
                ordered.append(entry[0])
            plan_site, org = entry
            protos.append(
                (
                    name,
                    domain.population,
                    domain.lists,
                    domain.parked,
                    True,
                    address,
                    org,
                    site.index,
                )
            )
            plan_site.positions.append(position)
            plan_site.ranks.append(domain.adoption_rank)
            plan_site.names.append(name)
        return ScanPlan(
            ip_version=ip_version,
            populations=populations,
            protos=protos,
            sites=ordered,
        )

    # ------------------------------------------------------------------
    # Site phase scheduling
    # ------------------------------------------------------------------
    def _quic_triggers(self, plan: ScanPlan) -> list[tuple]:
        """The plan's position-sorted QUIC trigger index (built once).

        Candidates come from the columnar store's rank-sorted
        :class:`~repro.store.columns.SiteSegment` arrays: each is a
        prefix-minimum record — the position that becomes the site's
        earliest QUIC-wanting domain once the weekly share exceeds
        ``rank_on``, superseded when it exceeds ``rank_off`` (the next,
        earlier-position candidate of the same site).
        """
        triggers = plan.quic_triggers
        if triggers is None:
            triggers = []
            for plan_site, segment in zip(plan.sites, plan_columns(plan).segments, strict=True):
                name_at = dict(zip(plan_site.positions, plan_site.names, strict=True))
                candidates = segment.quic_trigger_candidates()
                for index, (rank_on, position) in enumerate(candidates):
                    rank_off = (
                        candidates[index + 1][0]
                        if index + 1 < len(candidates)
                        else float("inf")
                    )
                    triggers.append(
                        (
                            position,
                            plan_site.site_index,
                            plan_site.address,
                            name_at[position],
                            rank_on,
                            rank_off,
                        )
                    )
            triggers.sort()  # positions are globally unique
            plan.quic_triggers = triggers
        return triggers

    def _schedule(
        self,
        plan: ScanPlan,
        week: Week,
        vantage_id: str,
        include_tcp: bool,
        selection: PluginSelection | None = None,
    ) -> tuple[list[SiteEvent], dict[int, bool]]:
        """The site phase as ordered events + per-site QUIC capability.

        Event order reproduces the reference loop: each site's QUIC
        exchange fires at its first domain that wants QUIC this week,
        its TCP exchange at its first attributed domain, globally
        ordered by domain position (QUIC before TCP at the same
        position).  Events are *emitted* in that order by merging two
        position-sorted streams — the week-invariant QUIC trigger index
        and the sites' first attributed positions — so scheduling a
        week is a single linear pass with no sort.

        ``selection`` appends one event per (plugin variant, fired QUIC
        event) after the core stream, grouped by variant in selection
        order: variants run against exactly the sites the core scan
        reached this week, reusing the triggering domain as authority.
        The default ``ecn``-only selection appends nothing, so the
        stream — and everything downstream of it — is byte-identical
        to the pre-plugin engine.
        """
        world = self.world
        sites = world.sites
        site_policy = world.site_policy
        share = world.adoption_share(week)
        quic_capable: dict[int, bool] = {}
        for plan_site in plan.sites:
            index = plan_site.site_index
            policy = site_policy(sites[index], vantage_id)
            quic_capable[index] = policy.reachable and policy.quic_profile is not None

        events: list[SiteEvent] = []
        append = events.append
        triggers = self._quic_triggers(plan)
        cursor, trigger_count = 0, len(triggers)
        if include_tcp:
            for plan_site in plan.sites:
                first = plan_site.positions[0]
                # QUIC sorts before TCP at equal positions (same site).
                while cursor < trigger_count and triggers[cursor][0] <= first:
                    _emit_quic_trigger(triggers[cursor], share, quic_capable, append)
                    cursor += 1
                append(
                    SiteEvent(
                        first,
                        TCP_EVENT,
                        plan_site.site_index,
                        plan_site.address,
                        plan_site.names[0],
                    )
                )
        while cursor < trigger_count:
            _emit_quic_trigger(triggers[cursor], share, quic_capable, append)
            cursor += 1
        if selection is not None and selection.bindings:
            fired = [event for event in events if event.kind == QUIC_EVENT]
            for binding in selection.bindings:
                kind = binding.kind
                for event in fired:
                    append(
                        SiteEvent(
                            event.position,
                            kind,
                            event.site_index,
                            event.address,
                            event.authority_domain,
                        )
                    )
        return events, quic_capable

    def site_events(
        self,
        week: Week,
        vantage_id: str = "main-aachen",
        *,
        ip_version: int = 4,
        populations: Sequence[str] = ("cno", "toplist"),
        include_tcp: bool = False,
        plugins: Sequence[str] | None = None,
    ) -> list[SiteEvent]:
        """Public view of the site phase (the week-sharding hook)."""
        plan = self.plan_for(ip_version, populations)
        events, _ = self._schedule(
            plan, week, vantage_id, include_tcp, resolve_plugins(plugins)
        )
        return events

    def _exchange(
        self,
        kind: int,
        site: "Site",
        week: Week,
        vantage_id: str,
        config,
        authority_domain: str,
        rng: RngStream | None,
        clock: Clock | None,
    ):
        """One site exchange through the replay cache.

        Byte-identical to a fresh scan whichever branch runs: a miss
        executes the real scan against a :class:`RecordingClock` and
        caches (result, advance trajectory); a hit replays exactly that
        trajectory into the caller's clock and returns the same result
        object.  Exchanges whose key derivation reports ``None`` (the
        path may draw randomness) always run fresh, preserving the RNG
        stream draw for draw.
        """
        world = self.world
        authority = f"www.{authority_domain}"
        cache = self.exchange_cache
        if kind == QUIC_EVENT:
            scan, prepare, client_config_for = (
                scan_site_quic,
                quic_exchange_inputs,
                quic_client_config,
            )
        else:
            scan, prepare, client_config_for = (
                scan_site_tcp,
                tcp_exchange_inputs,
                tcp_client_config,
            )
        if cache is None:
            return scan(
                world, site, week, vantage_id, config,
                authority=authority, rng=rng, clock=clock,
            )
        client_config = client_config_for(config, world.vantages[vantage_id].source_ip)
        inputs = prepare(
            world, site, week, vantage_id, client_config, path_memo=cache.path_memo
        )
        key = cache.key_for(inputs)
        if key is None:
            cache.stats.uncacheable += 1
            return scan(
                world, site, week, vantage_id, config,
                authority=authority, rng=rng, clock=clock, inputs=inputs,
            )
        outcome = cache.fetch(key)
        target_clock = clock if clock is not None else world.clock
        if outcome is not None:
            return replay_outcome(outcome, target_clock)
        recorder = RecordingClock(target_clock)
        result = scan(
            world, site, week, vantage_id, config,
            authority=authority, rng=rng, clock=recorder, inputs=inputs,
        )
        cache.store(key, ExchangeOutcome(result, tuple(recorder.advances)))
        return result

    def _plugin_exchange(
        self,
        binding: VariantBinding,
        site: "Site",
        week: Week,
        vantage_id: str,
        ip_version: int,
        authority_domain: str,
        rng: RngStream | None,
        clock: Clock | None,
    ):
        """One plugin-variant exchange through the replay cache.

        Mirrors :meth:`_exchange` with the plugin's client config in
        place of the scan config: the variant's ``ExchangeInputs`` are
        derived from the same site/week/route state, its distinct
        client config hashes to distinct cache keys, and hit / miss /
        uncacheable behave exactly as for the core scan — which is how
        variants inherit caching, sharding and checkpointing without
        any executor knowing plugins exist.
        """
        world = self.world
        authority = f"www.{authority_domain}"
        client_config = binding.client_config(
            world.vantages[vantage_id].source_ip, ip_version
        )
        if binding.variant.transport == "quic":
            prepare, run = quic_exchange_inputs, run_quic_exchange
        else:
            prepare, run = tcp_exchange_inputs, run_tcp_exchange
        cache = self.exchange_cache
        if cache is None:
            inputs = prepare(world, site, week, vantage_id, client_config)
            return run(world, inputs, week, vantage_id, authority, rng=rng, clock=clock)
        inputs = prepare(
            world, site, week, vantage_id, client_config, path_memo=cache.path_memo
        )
        key = cache.key_for(inputs)
        if key is None:
            cache.stats.uncacheable += 1
            return run(world, inputs, week, vantage_id, authority, rng=rng, clock=clock)
        outcome = cache.fetch(key)
        target_clock = clock if clock is not None else world.clock
        if outcome is not None:
            return replay_outcome(outcome, target_clock)
        recorder = RecordingClock(target_clock)
        result = run(world, inputs, week, vantage_id, authority, rng=rng, clock=recorder)
        cache.store(key, ExchangeOutcome(result, tuple(recorder.advances)))
        return result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def event_stream(
        self, event: SiteEvent, week: Week, vantage_id: str, ip_version: int
    ) -> RngStream:
        """The deterministic RNG substream of one site event.

        Seeded from everything that identifies the exchange — the shard
        layout and execution order never enter the seed, which is why
        any partition of the site phase reproduces the same draws.
        Plugin-variant events use their registry tag
        (``plugin/variant``), so a variant's draws are independent of
        the core scan's and of every other variant's.
        """
        if event.kind == QUIC_EVENT:
            kind = "quic"
        elif event.kind == TCP_EVENT:
            kind = "tcp"
        else:
            kind = stream_tag(event.kind)
        name = (
            f"site-scan/{week}/{vantage_id}/v{ip_version}/"
            f"{event.site_index}/{kind}"
        )
        return RngStream(self.world.config.seed, name)

    def _run_event(
        self,
        event: SiteEvent,
        week: Week,
        vantage_id: str,
        quic_config: QuicScanConfig,
        tcp_config: TcpScanConfig,
        records: dict,
        rng: RngStream | None = None,
        clock: Clock | None = None,
        plugin_rows: dict | None = None,
    ) -> None:
        """Execute one site event into ``records`` (or ``plugin_rows``).

        Core events land on the site record; plugin-variant events run
        the variant exchange and store the plugin's typed row under
        ``(site_index, kind)`` — rows, not raw results, are what
        variants contribute downstream (store columns, shard frames,
        checkpoints).
        """
        site = self.world.sites[event.site_index]
        if event.kind >= PLUGIN_KIND_BASE:
            binding = binding_for_kind(event.kind)
            result = self._plugin_exchange(
                binding,
                site,
                week,
                vantage_id,
                quic_config.ip_version,
                event.authority_domain,
                rng,
                clock,
            )
            if plugin_rows is not None:
                plugin_rows[(event.site_index, event.kind)] = binding.plugin.row(
                    binding.variant, result
                )
            return
        record = ensure_site_record(records, event.site_index, event.address)
        if event.kind == QUIC_EVENT:
            record.quic = self._exchange(
                QUIC_EVENT,
                site,
                week,
                vantage_id,
                quic_config,
                event.authority_domain,
                rng,
                clock,
            )
        else:
            record.tcp = self._exchange(
                TCP_EVENT,
                site,
                week,
                vantage_id,
                tcp_config,
                event.authority_domain,
                rng,
                clock,
            )

    def _execute_site_phase(
        self,
        events: list[SiteEvent],
        week: Week,
        vantage_id: str,
        ip_version: int,
        quic_config: QuicScanConfig,
        tcp_config: TcpScanConfig,
        records: dict,
        site_rng: str,
        entry_sink: list | None = None,
        replay: dict[tuple[int, int], tuple[object, float]] | None = None,
        plugin_rows: dict | None = None,
    ) -> None:
        """Run all site events (serially; overridden by the sharded engine).

        ``entry_sink``, when given, collects ``(site_index, kind,
        result, elapsed)`` entries in event order — the unit campaign
        checkpoints persist.  Plugin-variant entries carry the
        plugin's typed row as their result.  ``replay`` short-circuits
        execution with previously produced entries (a rehydrated
        checkpoint); both require ``site_rng="per-site"`` because
        shared-stream draws depend on the events actually executing.
        ``plugin_rows`` collects variant rows keyed ``(site_index, kind)``.
        """
        if site_rng == "shared":
            if entry_sink is not None or replay is not None:
                raise ValueError(
                    "entry capture/replay requires site_rng='per-site'; the "
                    "shared RNG stream's draws depend on events executing"
                )
            for event in events:
                self._run_event(
                    event, week, vantage_id, quic_config, tcp_config, records,
                    plugin_rows=plugin_rows,
                )
            return
        if site_rng != "per-site":
            raise ValueError(f"unknown site_rng mode: {site_rng!r}")
        if replay is not None:
            self._apply_replay(
                events, replay, records, entry_sink=entry_sink,
                plugin_rows=plugin_rows,
            )
            return
        # Independent substream + private clock per event; the shared
        # clock advances by the summed elapsed time, in event order, so
        # any executor that merges in event order lands on the same
        # (bit-identical) float.
        if plugin_rows is None:
            plugin_rows = {}
        elapsed_total = 0.0
        for event in events:
            elapsed = self._run_event_per_site(
                event, week, vantage_id, ip_version, quic_config, tcp_config,
                records, plugin_rows=plugin_rows,
            )
            elapsed_total += elapsed
            if entry_sink is not None:
                if event.kind == QUIC_EVENT:
                    result = records[event.site_index].quic
                elif event.kind == TCP_EVENT:
                    result = records[event.site_index].tcp
                else:
                    result = plugin_rows[(event.site_index, event.kind)]
                entry_sink.append((event.site_index, event.kind, result, elapsed))
        self.world.clock.advance(elapsed_total)

    def _apply_replay(
        self,
        events: list[SiteEvent],
        replay: dict[tuple[int, int], tuple[object, float]],
        records: dict,
        *,
        entry_sink: list | None = None,
        source: str = "site-phase replay",
        shard_of=None,
        plugin_rows: dict | None = None,
    ) -> None:
        """Fill ``records`` from previously produced per-event results.

        The single definition of the central merge: sharded execution
        and checkpoint rehydration both land here.  Coverage is
        validated *before* any record is touched — a gap raises
        :class:`ShardResultMissing` with the full list of absent
        ``(site_index, kind)`` pairs and leaves ``records`` and the
        clock untouched, so callers can recover by recomputing.  Entries
        then apply in serial event order: records fill in the same
        sequence and the clock sums the same floats in the same order
        as the serial per-site engine (bit-identical trajectory).

        Plugin-variant entries (kind >= :data:`PLUGIN_KIND_BASE`) carry
        row tuples, not exchange results; they land in ``plugin_rows``
        and never create or touch a site record.
        """
        missing = [
            (event.site_index, event.kind)
            for event in events
            if (event.site_index, event.kind) not in replay
        ]
        if missing:
            raise ShardResultMissing(missing, source=source, shard_of=shard_of)
        elapsed_total = 0.0
        for event in events:
            result, elapsed = replay[(event.site_index, event.kind)]
            if event.kind >= PLUGIN_KIND_BASE:
                if plugin_rows is not None:
                    plugin_rows[(event.site_index, event.kind)] = result
            else:
                record = ensure_site_record(records, event.site_index, event.address)
                if event.kind == QUIC_EVENT:
                    record.quic = result
                else:
                    record.tcp = result
            elapsed_total += elapsed
            if entry_sink is not None:
                entry_sink.append((event.site_index, event.kind, result, elapsed))
        self.world.clock.advance(elapsed_total)

    def _run_event_per_site(
        self,
        event: SiteEvent,
        week: Week,
        vantage_id: str,
        ip_version: int,
        quic_config: QuicScanConfig,
        tcp_config: TcpScanConfig,
        records: dict,
        plugin_rows: dict | None = None,
    ) -> float:
        """One event on its own substream + clock; returns elapsed time.

        The single definition of per-site execution — the serial
        per-site mode above and every sharded executor run exactly this,
        which is what keeps them bit-identical.
        """
        clock = Clock()
        self._run_event(
            event,
            week,
            vantage_id,
            quic_config,
            tcp_config,
            records,
            rng=self.event_stream(event, week, vantage_id, ip_version),
            clock=clock,
            plugin_rows=plugin_rows,
        )
        return clock.now

    def run_week(
        self,
        week: Week,
        vantage_id: str = "main-aachen",
        *,
        ip_version: int = 4,
        populations: Sequence[str] = ("cno", "toplist"),
        include_tcp: bool = False,
        quic_config: QuicScanConfig | None = None,
        tcp_config: TcpScanConfig | None = None,
        run_tracebox: bool = False,
        plugins: Sequence[str] | None = None,
        site_rng: str | None = None,
        backend: str = "objects",
        phase_stats: ScanPhaseStats | None = None,
        entry_sink: list | None = None,
        replay_entries: Sequence[tuple[int, int, object, float]] | None = None,
    ) -> WeeklyRun:
        """One weekly run, equal field-for-field to the reference loop.

        ``plugins`` selects the measurement plugins for the week
        (default: just the core ``ecn`` scan — byte-identical to the
        pre-plugin engine).  Plugin connection variants are scheduled
        after the core stream and their merged rows land on
        ``run.plugin_rows``; plugins with a ``finalize_run`` hook (e.g.
        ``trace``) run it after attribution.  ``run_tracebox=True`` is
        equivalent to adding ``"trace"`` to the selection.

        ``site_rng="per-site"`` switches the site phase to independent
        per-event RNG substreams (see the module docstring) — the mode
        the sharded engine golden-tests against.  ``None`` resolves to
        :attr:`default_site_rng`.

        ``entry_sink`` collects the week's ``(site_index, kind, result,
        elapsed)`` site-phase entries in event order (what campaign
        checkpoints persist); ``replay_entries`` rehydrates the site
        phase from such entries instead of executing it.  Both require
        ``site_rng="per-site"``.

        ``backend`` picks the results layer: ``"objects"`` materialises
        one :class:`DomainObservation` per domain (the defining
        semantics); ``"store"`` records the run into a columnar
        :class:`~repro.store.columns.ObservationStore` — attribution
        becomes O(sites) recording plus lazy index arrays, and
        observations are served as field-identical lazy views
        (golden-tested equal in ``tests/test_store_golden.py``).
        Campaigns default to the store backend.
        """
        if backend not in ("objects", "store"):
            raise ValueError(f"unknown backend: {backend!r}")
        if site_rng is None:
            site_rng = self.default_site_rng
        selection = resolve_plugins(tuple(plugins) if plugins is not None else None)
        if run_tracebox and "trace" not in selection.names:
            selection = resolve_plugins(selection.names + ("trace",))
        world = self.world
        plan = self.plan_for(ip_version, populations)
        quic_config = quic_config or QuicScanConfig(ip_version=ip_version)
        tcp_config = tcp_config or TcpScanConfig(ip_version=ip_version)
        if backend == "store":
            from repro.store.views import StoreWeeklyRun

            run: WeeklyRun = StoreWeeklyRun(
                week=week, vantage_id=vantage_id, ip_version=ip_version
            )
        else:
            run = WeeklyRun(week=week, vantage_id=vantage_id, ip_version=ip_version)

        # Phase 1: per-site exchanges, in reference trigger order.
        events, quic_capable = self._schedule(
            plan, week, vantage_id, include_tcp, selection
        )
        records = run.site_records
        plugin_rows: dict[tuple[int, int], tuple] = {}
        cache = self.exchange_cache
        cache_base = (
            cache.stats.snapshot()
            if phase_stats is not None and cache is not None
            else None
        )
        phase_start = perf_counter() if phase_stats is not None else 0.0
        replay = None
        if replay_entries is not None:
            replay = {
                (site_index, kind): (result, elapsed)
                for site_index, kind, result, elapsed in replay_entries
            }
        telemetry = self.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is not None:
            span_attrs = dict(week=str(week), events=len(events))
            if selection.names != DEFAULT_PLUGINS:
                span_attrs["plugins"] = ",".join(selection.names)
            site_span = tracer.begin("site", "phase", **span_attrs)
        else:
            site_span = None
        self._execute_site_phase(
            events,
            week,
            vantage_id,
            ip_version,
            quic_config,
            tcp_config,
            records,
            site_rng,
            entry_sink,
            replay,
            plugin_rows=plugin_rows,
        )
        if tracer is not None:
            tracer.end(site_span)
        if phase_stats is not None:
            now = perf_counter()
            phase_stats.site_phase_seconds += now - phase_start
            phase_start = now
            if cache_base is not None:
                hits, misses, uncacheable = cache.stats.snapshot()
                phase_stats.exchange_cache_hits += hits - cache_base[0]
                phase_stats.exchange_cache_misses += misses - cache_base[1]
                phase_stats.exchange_cache_uncacheable += uncacheable - cache_base[2]

        # Phase 2: attribute per-site results to domains.
        share = world.adoption_share(week)
        attr_span = (
            tracer.begin("attribution", "phase", week=str(week), backend=backend)
            if tracer is not None
            else None
        )
        if backend == "store":
            self._attribute_store(run, plan, records, quic_capable, include_tcp, share)
        else:
            self._attribute_objects(run, plan, records, quic_capable, include_tcp, share)
        if tracer is not None:
            tracer.end(attr_span)
        self._attribute_plugins(run, plan, selection, plugin_rows, telemetry)
        if phase_stats is not None:
            phase_stats.attribution_seconds += perf_counter() - phase_start

        for plugin in selection.finalizers:
            plugin.finalize_run(world, run, week, vantage_id, ip_version)
        return run

    def _attribute_objects(
        self,
        run: WeeklyRun,
        plan: ScanPlan,
        records: dict,
        quic_capable: dict[int, bool],
        include_tcp: bool,
        share: float,
    ) -> None:
        """The eager path: one slotted observation per domain + fan-out."""
        run.observations = list(starmap(DomainObservation, plan.protos))
        observations = run.observations
        for plan_site in plan.sites:
            record = records.get(plan_site.site_index)
            if quic_capable[plan_site.site_index]:
                result = record.quic if record is not None else None
                for pos, rank in zip(plan_site.positions, plan_site.ranks, strict=True):
                    if rank < share:
                        obs = observations[pos]
                        obs.quic_attempted = True
                        obs.quic = result
            if include_tcp and record is not None:
                tcp_result = record.tcp
                for pos in plan_site.positions:
                    observations[pos].tcp = tcp_result

    def _attribute_store(
        self,
        run: WeeklyRun,
        plan: ScanPlan,
        records: dict,
        quic_capable: dict[int, bool],
        include_tcp: bool,
        share: float,
    ) -> None:
        """The columnar path: O(sites) recording, no per-domain work."""
        from repro.store.columns import ObservationStore, plan_columns

        store = ObservationStore(
            plan_columns(plan),
            week=run.week,
            vantage_id=run.vantage_id,
            ip_version=run.ip_version,
            share=share,
        )
        for segment_index, plan_site in enumerate(plan.sites):
            record = records.get(plan_site.site_index)
            capable = quic_capable[plan_site.site_index]
            store.record_site(
                segment_index,
                quic_capable=capable,
                quic=(record.quic if record is not None else None) if capable else None,
                tcp=record.tcp if (include_tcp and record is not None) else None,
            )
        run.attach(store)

    def _attribute_plugins(
        self,
        run: WeeklyRun,
        plan: ScanPlan,
        selection: PluginSelection,
        plugin_rows: dict[tuple[int, int], tuple],
        telemetry=None,
    ) -> None:
        """Merge per-variant rows into per-plugin tables on the run.

        Multi-variant plugins merge field-wise: the last variant in
        declaration order with a non-``None`` value for a field wins.
        Store-backed runs additionally materialise the merged rows as
        per-plugin columns (:meth:`ObservationStore.add_plugin_columns`)
        aligned with the plan's site segments.
        """
        if not selection.row_plugins:
            return
        tracer = telemetry.tracer if telemetry is not None else None
        by_kind: dict[int, dict[int, tuple]] = {}
        for (site_index, kind), row in plugin_rows.items():
            by_kind.setdefault(kind, {})[site_index] = row
        for plugin in selection.row_plugins:
            span = (
                tracer.begin("plugin", "phase", plugin=plugin.name)
                if tracer is not None
                else None
            )
            width = len(plugin.fields)
            merged: dict[int, tuple] = {}
            for binding in selection.bindings:
                if binding.plugin is not plugin:
                    continue
                for site_index, row in by_kind.get(binding.kind, {}).items():
                    base = merged.get(site_index)
                    if base is None:
                        merged[site_index] = tuple(row)
                    else:
                        merged[site_index] = tuple(
                            row[i] if row[i] is not None else base[i]
                            for i in range(width)
                        )
            run.plugin_rows[plugin.name] = merged
            store = getattr(run, "store", None)
            if store is not None:
                field_names = [field.name for field in plugin.fields]
                columns: dict[str, list] = {name: [] for name in field_names}
                for plan_site in plan.sites:
                    row = merged.get(plan_site.site_index)
                    for i, name in enumerate(field_names):
                        columns[name].append(row[i] if row is not None else None)
                store.add_plugin_columns(plugin.name, columns)
            if telemetry is not None:
                telemetry.registry.add_counter(
                    f"plugin.{plugin.name}.rows", len(merged)
                )
            if tracer is not None:
                tracer.end(span)
