"""Sharded site phase: determinism and golden equivalence.

The sharded engine's contract is that the *partition is invisible*:
per-site RNG substreams are seeded from stable identities (world seed,
week, vantage, family, site, kind), so any shard count and any shard
execution order must merge to results identical to the
serial :class:`ScanEngine` run in ``site_rng="per-site"`` mode — same
observations, same site records, same shared-clock trajectory.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.pipeline.sharding import ShardedScanEngine
from repro.scanner.results import DomainObservation
from repro.web.spec import WorldConfig

SCALE = 6_000

OBSERVATION_FIELDS = [f.name for f in dataclasses.fields(DomainObservation)]


def _build():
    return repro.build_world(WorldConfig(scale=SCALE))


def _assert_runs_equal(expected, actual):
    assert len(expected.observations) == len(actual.observations)
    for exp, act in zip(expected.observations, actual.observations, strict=True):
        for name in OBSERVATION_FIELDS:
            assert getattr(exp, name) == getattr(act, name), (
                f"{exp.domain}: field {name!r} diverged"
            )
    assert expected.site_records.keys() == actual.site_records.keys()
    for index, exp_record in expected.site_records.items():
        act_record = actual.site_records[index]
        assert exp_record.ip == act_record.ip
        assert exp_record.quic == act_record.quic
        assert exp_record.tcp == act_record.tcp
    assert expected.traces == actual.traces


@pytest.fixture(scope="module")
def serial_per_site():
    """The serial engine in per-site RNG mode — the golden reference."""
    world = _build()
    week = world.config.reference_week
    run = world.scan_engine().run_week(
        week, site_rng="per-site", include_tcp=True, run_tracebox=True
    )
    return world, run


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_matches_serial_per_site(serial_per_site, shards):
    world_ref, reference = serial_per_site
    world = _build()
    engine = ShardedScanEngine(world, shards=shards)
    run = engine.run_week(
        world.config.reference_week, include_tcp=True, run_tracebox=True
    )
    _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


def test_sharded_results_invariant_under_worker_permutation(serial_per_site):
    world_ref, reference = serial_per_site
    world = _build()
    engine = ShardedScanEngine(world, shards=4, shard_order=[3, 1, 0, 2])
    run = engine.run_week(
        world.config.reference_week, include_tcp=True, run_tracebox=True
    )
    _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


def test_per_site_mode_is_reproducible_run_to_run():
    """Two identically-seeded worlds produce identical per-site runs."""
    run_a = _build().scan_engine().run_week(
        _build().config.reference_week, site_rng="per-site"
    )
    run_b = _build().scan_engine().run_week(
        _build().config.reference_week, site_rng="per-site"
    )
    _assert_runs_equal(run_a, run_b)


def test_partition_is_stable_and_keeps_sites_together():
    world = _build()
    engine = ShardedScanEngine(world, shards=4)
    events = engine.site_events(world.config.reference_week, include_tcp=True)
    groups = engine.partition(events)
    assert len(groups) == 4
    assert sum(len(g) for g in groups) == len(events)
    for index, group in enumerate(groups):
        for event in group:
            assert event.site_index % 4 == index  # QUIC+TCP co-sharded


def test_campaign_with_shards_matches_unsharded_per_site():
    world_a, world_b = _build(), _build()
    weeks = [world_a.config.start_week, world_a.config.reference_week]
    engine = world_a.scan_engine()
    runs = [engine.run_week(week, site_rng="per-site") for week in weeks]
    campaign = repro.run_campaign(
        world_b, weeks=weeks, shards=2, populations=("cno", "toplist")
    )
    for reference, run in zip(runs, campaign.runs, strict=True):
        _assert_runs_equal(reference, run)
    assert world_a.clock.now == world_b.clock.now


def test_sharded_engine_rejects_shared_stream_and_bad_executors():
    world = _build()
    # Shards run inline, in one process: there is no executor to choose
    # and no dispatch to supervise.
    for knob in ("executor", "shard_timeout", "max_shard_retries", "fault_plan"):
        with pytest.raises(TypeError):
            ShardedScanEngine(world, shards=2, **{knob: None})
    with pytest.raises(ValueError):
        ShardedScanEngine(world, shards=0)
    engine = ShardedScanEngine(world, shards=2)
    with pytest.raises(ValueError):
        engine.run_week(world.config.reference_week, site_rng="shared")


def test_sharded_engine_shares_plan_cache_with_serial_engine():
    world = _build()
    serial = world.scan_engine()
    plan = serial.plan_for(4, ("cno", "toplist"))
    engine = ShardedScanEngine(world, shards=2)
    assert engine.plan_for(4, ("cno", "toplist")) is plan
