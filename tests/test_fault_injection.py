"""Deterministic fault injection and typed recovery errors.

The fault harness (:mod:`repro.faults`) injects the two failures the
campaign runtime has hooks for — a checkpoint damaged as it is written,
and a campaign aborted between weeks — and both must be reproducible
bit for bit from the plan seed.  Replays that do not cover a week's
schedule fail with the typed :class:`ShardResultMissing` naming exactly
what is absent, before any record is touched.  End-to-end recovery
(kill-and-resume, corrupt-checkpoint-then-resume) is golden-tested in
``tests/test_checkpoint.py`` and gated by
``benchmarks/bench_fault_injection.py``.
"""

from __future__ import annotations

import pytest

import repro
from repro.faults import FaultPlan, InjectedFault
from repro.pipeline.engine import ShardResultMissing
from repro.pipeline.sharding import ShardedScanEngine
from repro.web.spec import WorldConfig

from tests.test_pipeline_sharding import _assert_runs_equal

SCALE = 6_000


def _build():
    return repro.build_world(WorldConfig(scale=SCALE))


def test_missing_shard_results_raise_typed_error():
    world = _build()
    engine = ShardedScanEngine(world, shards=2)
    week = world.config.reference_week
    with pytest.raises(ShardResultMissing) as excinfo:
        engine.run_week(week, include_tcp=True, replay_entries=[])
    message = str(excinfo.value)
    assert "missing" in message
    assert "site" in message
    assert "shard" in message
    assert excinfo.value.missing  # the full (site, kind) list is attached
    # Nothing was merged: the failed replay left no half-filled state.
    assert world.clock.now == 0.0


def test_partial_replay_names_only_absent_entries():
    world = _build()
    engine = ShardedScanEngine(world, shards=2)
    week = world.config.reference_week
    # Replay covering only half the schedule: the error names the rest.
    run_entries = []
    full = engine.run_week(week, include_tcp=True, entry_sink=run_entries)
    assert run_entries
    half = run_entries[: len(run_entries) // 2]
    world2 = _build()
    engine2 = ShardedScanEngine(world2, shards=2)
    with pytest.raises(ShardResultMissing) as excinfo:
        engine2.run_week(week, include_tcp=True, replay_entries=half)
    assert len(excinfo.value.missing) == len(run_entries) - len(half)
    # A full replay reproduces the executed run exactly.
    world3 = _build()
    engine3 = ShardedScanEngine(world3, shards=4)  # different partition: irrelevant
    replayed = engine3.run_week(week, include_tcp=True, replay_entries=run_entries)
    _assert_runs_equal(full, replayed)
    assert world.clock.now == world3.clock.now


def test_fault_corruption_is_deterministic():
    config = repro.build_world(WorldConfig(scale=40_000)).config
    week, other_week = config.reference_week, config.start_week
    buf = bytes(range(256)) * 8
    plan_a = FaultPlan(seed=9).corrupt_checkpoint(week=week)
    plan_b = FaultPlan(seed=9).corrupt_checkpoint(week=week)
    mangled_a = plan_a.mangle_checkpoint_bytes(buf, week)
    mangled_b = plan_b.mangle_checkpoint_bytes(buf, week)
    assert mangled_a == mangled_b != buf
    # A non-matching week leaves the bytes alone.
    assert plan_a.mangle_checkpoint_bytes(buf, other_week) == buf
    # A different seed damages a different position.
    other = FaultPlan(seed=10).corrupt_checkpoint(week=week)
    assert other.mangle_checkpoint_bytes(buf, week) != mangled_a
    # Truncation is seeded the same way, and always loses bytes.
    cut_a = FaultPlan(seed=9).corrupt_checkpoint(mode="truncate")
    cut_b = FaultPlan(seed=9).corrupt_checkpoint(mode="truncate")
    assert cut_a.mangle_checkpoint_bytes(buf, week) == cut_b.mangle_checkpoint_bytes(
        buf, week
    )
    assert len(cut_a.mangle_checkpoint_bytes(buf, week)) < len(buf)


def test_abort_rule_raises_injected_fault():
    world = _build()
    weeks = [world.config.start_week, world.config.reference_week]
    plan = FaultPlan().abort_campaign_after(weeks[0])
    with pytest.raises(InjectedFault):
        repro.run_campaign(world, weeks=weeks, shards=2, fault_plan=plan)


def test_fault_plan_rejects_unknown_modes():
    with pytest.raises(ValueError):
        FaultPlan().corrupt_checkpoint(mode="scramble")
    with pytest.raises(ValueError):
        FaultPlan().corrupt_checkpoint(mode="zero")
