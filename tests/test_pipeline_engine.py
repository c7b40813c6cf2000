"""Site-first scan engine: golden equivalence against the reference loop.

The engine must reproduce the per-domain reference scan *byte for byte*
— same observations, same site records, same traces, same shared
RNG/clock trajectory — while doing per-site instead of per-domain work.
Two identically-seeded worlds are built and driven in lockstep: one by
the reference loop, one by the engine.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.codepoints import ECN
from repro.dns.resolver import DnsRecord
from repro.pipeline.engine import QUIC_EVENT, TCP_EVENT
from repro.pipeline.runs import run_weekly_scan_reference
from repro.scanner.quic_scan import QuicScanConfig
from repro.scanner.results import DomainObservation
from repro.web.spec import WorldConfig

GOLDEN_SCALE = 20_000

OBSERVATION_FIELDS = [f.name for f in dataclasses.fields(DomainObservation)]


def _world_pair():
    config = WorldConfig(scale=GOLDEN_SCALE)
    return repro.build_world(config), repro.build_world(config)


def _assert_runs_equal(reference, engine_run):
    assert len(reference.observations) == len(engine_run.observations)
    for ref_obs, eng_obs in zip(reference.observations, engine_run.observations, strict=True):
        for name in OBSERVATION_FIELDS:
            assert getattr(ref_obs, name) == getattr(eng_obs, name), (
                f"{ref_obs.domain}: field {name!r} diverged"
            )
    assert reference.site_records.keys() == engine_run.site_records.keys()
    for index, ref_record in reference.site_records.items():
        eng_record = engine_run.site_records[index]
        assert ref_record.ip == eng_record.ip
        assert ref_record.quic == eng_record.quic
        assert ref_record.tcp == eng_record.tcp
    assert reference.traces == engine_run.traces


def test_engine_matches_reference_v4_with_tracebox():
    world_ref, world_eng = _world_pair()
    week = world_ref.config.reference_week
    reference = run_weekly_scan_reference(world_ref, week, run_tracebox=True)
    engine_run = repro.run_weekly_scan(world_eng, week, run_tracebox=True)
    _assert_runs_equal(reference, engine_run)
    # The shared clock advanced identically: the engine issued the same
    # exchanges in the same order.
    assert world_ref.clock.now == world_eng.clock.now


def test_engine_matches_reference_v6():
    world_ref, world_eng = _world_pair()
    week = world_ref.config.ipv6_week
    reference = run_weekly_scan_reference(
        world_ref, week, ip_version=6, populations=("cno",)
    )
    engine_run = repro.run_weekly_scan(
        world_eng, week, ip_version=6, populations=("cno",)
    )
    _assert_runs_equal(reference, engine_run)
    assert world_ref.clock.now == world_eng.clock.now


def test_engine_matches_reference_include_tcp():
    world_ref, world_eng = _world_pair()
    week = world_ref.config.tcp_week
    config = QuicScanConfig(probe_codepoint=ECN.CE)
    reference = run_weekly_scan_reference(
        world_ref, week, populations=("cno",), include_tcp=True, quic_config=config
    )
    engine_run = repro.run_weekly_scan(
        world_eng, week, populations=("cno",), include_tcp=True, quic_config=config
    )
    _assert_runs_equal(reference, engine_run)
    assert world_ref.clock.now == world_eng.clock.now


def test_engine_matches_reference_with_cross_site_resolver_override():
    """A resolver mutated post-build (domain pointed at another site's
    IP): the explicit record wins over the table-derived address, and
    the domain joins the other site's plan."""

    def mutated(world):
        domain = next(d for d in world.domains if d.site_index == 0)
        world.resolver.add(domain.name, DnsRecord(a=world.sites[-1].ip))
        return world

    world_ref, world_eng = _world_pair()
    mutated(world_ref), mutated(world_eng)
    week = world_ref.config.reference_week
    reference = run_weekly_scan_reference(world_ref, week, run_tracebox=True)
    engine_run = repro.run_weekly_scan(world_eng, week, run_tracebox=True)
    _assert_runs_equal(reference, engine_run)
    assert world_ref.clock.now == world_eng.clock.now


def test_engine_matches_reference_across_consecutive_runs():
    """RNG state stays in lockstep run-over-run (campaign semantics)."""
    world_ref, world_eng = _world_pair()
    weeks = [world_ref.config.start_week, world_ref.config.reference_week]
    for week in weeks:
        reference = run_weekly_scan_reference(world_ref, week, populations=("cno",))
        engine_run = repro.run_weekly_scan(world_eng, week, populations=("cno",))
        _assert_runs_equal(reference, engine_run)


# ----------------------------------------------------------------------
# Hot-loop guarantees
# ----------------------------------------------------------------------
def test_hot_loop_never_parses_ips_and_resolves_policy_once(monkeypatch):
    """After plan warm-up, a run does zero IP parsing / trie walks and at
    most one policy evaluation per (site, vantage) — the perf contract."""
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    engine = world.scan_engine()
    engine.plan_for(4, ("cno", "toplist"))

    def forbidden(*args, **kwargs):  # pragma: no cover - only on regression
        raise AssertionError("hot loop must not parse IP addresses")

    from repro.asdb import prefixtree

    monkeypatch.setattr(prefixtree.PrefixTree, "lookup", forbidden)
    monkeypatch.setattr(prefixtree.PrefixTree, "lookup_int", forbidden)
    monkeypatch.setattr(prefixtree, "parse_address", forbidden)

    compute_calls: list[tuple[int, str]] = []
    original_compute = type(world)._compute_site_policy

    def counting_compute(self, site, vantage_id):
        compute_calls.append((site.index, vantage_id))
        return original_compute(self, site, vantage_id)

    monkeypatch.setattr(type(world), "_compute_site_policy", counting_compute)

    run = engine.run_week(world.config.reference_week, run_tracebox=True)
    assert run.observations
    assert len(compute_calls) <= len(world.sites)
    assert len(compute_calls) == len(set(compute_calls))  # once per (site, vantage)

    # A second run re-evaluates nothing: the memo holds.
    compute_calls.clear()
    engine.run_week(world.config.reference_week)
    assert not compute_calls


def test_site_events_ordered_and_deduplicated():
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    engine = world.scan_engine()
    week = world.config.reference_week
    events = engine.site_events(week, include_tcp=True)
    positions = [(event.position, event.kind) for event in events]
    assert positions == sorted(positions)  # reference trigger order
    assert len({(e.site_index, e.kind) for e in events}) == len(events)
    quic_sites = {e.site_index for e in events if e.kind == QUIC_EVENT}
    tcp_sites = {e.site_index for e in events if e.kind == TCP_EVENT}
    assert quic_sites <= tcp_sites  # every scanned site has a TCP event
    for event in events:
        if event.kind == QUIC_EVENT:
            policy = world.site_policy(world.sites[event.site_index], "main-aachen")
            assert policy.reachable and policy.quic_profile is not None


def test_site_events_far_fewer_than_domains():
    """The engine's point: weekly work is O(sites), not O(domains)."""
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    events = world.scan_engine().site_events(world.config.reference_week)
    assert len(events) <= len(world.sites)
    assert len(events) * 10 < len(world.domains)


def test_world_site_attribution_materialised():
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    # Attribution is a lazy section since the snapshot PR: sites carry
    # no ASN/org until the section materialises (the engine ensures it
    # before building its first plan).
    assert world.section_state()["attribution_stale"]
    assert all(site.asn is None for site in world.sites)
    world.ensure_site_attribution()
    assert not world.section_state()["attribution_stale"]
    for site in world.sites:
        assert site.asn == site.provider.asn
        assert site.org == world.asorg.org_for(site.provider.asn)
    # Attribution fan-out lists cover exactly the resolvable domains.
    attached = sum(len(indices) for indices in world.site_domains)
    resolvable = sum(1 for d in world.domains if d.site_index >= 0)
    assert attached == resolvable
    for site in world.sites[:25]:
        for domain in world.domains_of(site):
            assert domain.site_index == site.index


# ----------------------------------------------------------------------
# Table-derived plans == resolver-walk plans
# ----------------------------------------------------------------------
def _resolver_walk_plan(world, ip_version, populations):
    """The planner before plans were derived from the tables: resolve
    every domain through the resolver, then group attributions by the
    world's ``site_domains`` bindings, with the attributions outside
    them (explicit records pointing elsewhere) grouped afterwards and
    re-sorted.  Returns ``(protos, [(site, address, positions, ranks,
    names), ...])``."""
    world.ensure_site_attribution()
    domains = world.domains
    protos = []
    attributed = {}  # domain index -> (position, site index, address)
    for domain_index, domain in enumerate(domains):
        if domain.population not in populations:
            continue
        base = (domain.name, domain.population, domain.lists, domain.parked)
        address = world.resolver.resolve_address(domain.name, family=ip_version)
        site = None if address is None else world.site_by_ip(address)
        if address is None:
            protos.append(base + (False,))
        elif site is None:
            protos.append(base + (True, address))
        else:
            org = (
                site.org
                if site.asn is not None
                else world.asorg.org_for(world.prefixes.lookup(site.ip))
            )
            attributed[domain_index] = (len(protos), site.index, address)
            protos.append(base + (True, address, org, site.index))
    grouped = {}  # site index -> (address, [(position, rank, name)])

    def add(domain_index):
        position, site_index, address = attributed.pop(domain_index)
        domain = domains[domain_index]
        entries = grouped.setdefault(site_index, (address, []))[1]
        entries.append((position, domain.adoption_rank, domain.name))

    for site_index, domain_indices in enumerate(world.site_domains):
        for domain_index in domain_indices:
            entry = attributed.get(domain_index)
            if entry is not None and entry[1] == site_index:
                add(domain_index)
    for domain_index in sorted(attributed):
        add(domain_index)
    sites = []
    for site_index, (address, entries) in grouped.items():
        entries.sort()
        sites.append(
            (
                site_index,
                address,
                [e[0] for e in entries],
                [e[1] for e in entries],
                [e[2] for e in entries],
            )
        )
    sites.sort(key=lambda site: site[2][0])
    return protos, sites


_RECORD_KINDS = ("other-site", "unregistered", "empty", "aaaa-only")


@settings(max_examples=25, deadline=None)
@given(
    scale=st.integers(30_000, 400_000),
    seed=st.integers(0, 2**31 - 1),
    records=st.lists(
        st.tuples(
            st.sampled_from(_RECORD_KINDS),
            st.integers(0, 2**31 - 1),  # which domain
            st.integers(0, 2**31 - 1),  # which target site
        ),
        max_size=12,
    ),
)
def test_table_derived_plan_matches_resolver_walk(scale, seed, records):
    """Plans read addresses off the domain/site tables and consult the
    resolver only for explicit records; on generated worlds with
    explicit records of every shape they equal the resolver walk."""
    world = repro.build_world(WorldConfig(scale=scale, seed=seed))
    v6_sites = [site for site in world.sites if site.ipv6 is not None]
    for kind, domain_pick, site_pick in records:
        name = world.domains[domain_pick % len(world.domains)].name
        target = world.sites[site_pick % len(world.sites)]
        if kind == "other-site":
            record = DnsRecord(a=target.ip, aaaa=target.ipv6)
        elif kind == "unregistered":
            host = site_pick % 250 + 1
            record = DnsRecord(a=f"198.51.100.{host}", aaaa=f"2001:db8:ffff::{host:x}")
        elif kind == "empty":
            record = DnsRecord()
        else:
            aaaa = v6_sites[site_pick % len(v6_sites)].ipv6 if v6_sites else "2001:db8:ffff::1"
            record = DnsRecord(aaaa=aaaa)
        world.resolver.add(name, record)
    engine = world.scan_engine()
    plans = {
        (ip_version, populations): engine.plan_for(ip_version, populations)
        for ip_version in (4, 6)
        for populations in (("cno",), ("toplist",), ("cno", "toplist"))
    }
    # Planning materialised no fallback DNS record.
    assert world.resolver.known_domains() == len(world.resolver.explicit_records)
    for (ip_version, populations), plan in plans.items():
        protos, sites = _resolver_walk_plan(world, ip_version, populations)
        actual = [(s.site_index, s.address, s.positions, s.ranks, s.names) for s in plan.sites]
        assert plan.protos == protos
        assert actual == sites
