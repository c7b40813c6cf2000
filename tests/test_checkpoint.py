"""Campaign checkpointing: kill-and-resume golden equivalence.

The contract: a campaign interrupted after any week and resumed from
its checkpoint directory produces results *identical* to an
uninterrupted run — same observations, same site records, same shared
clock — for any shard count, including resuming under a different
partition than the one that wrote the checkpoints.  Corrupt,
foreign or missing checkpoint files are never trusted: the week
recomputes and the output is unchanged.
"""

from __future__ import annotations

import pytest

import repro
from repro.faults import FaultPlan, InjectedFault
from repro.pipeline import run_campaign
from repro.pipeline.checkpoint import (
    CampaignCheckpointer,
    campaign_checkpoint_key,
)
from repro.util.atomic import atomic_write_bytes
from repro.web.spec import WorldConfig

from tests.test_pipeline_sharding import _assert_runs_equal

SCALE = 6_000
POPULATIONS = ("cno", "toplist")


def _build():
    return repro.build_world(WorldConfig(scale=SCALE))


def _weeks(world):
    config = world.config
    return [config.start_week, config.start_week + 8, config.reference_week]


def _campaign(world, **kwargs):
    kwargs.setdefault("shards", 2)
    return run_campaign(
        world, weeks=_weeks(world), populations=POPULATIONS, **kwargs
    )


def _assert_campaigns_equal(ref_world, reference, world, campaign):
    assert reference.weeks() == campaign.weeks()
    for ref_run, run in zip(reference.runs, campaign.runs, strict=True):
        _assert_runs_equal(ref_run, run)
    assert ref_world.clock.now == world.clock.now


@pytest.fixture(scope="module")
def uninterrupted():
    """The golden reference: one sharded campaign, never interrupted."""
    world = _build()
    return world, _campaign(world)


@pytest.mark.parametrize("shards", [1, 2, 4], ids=lambda n: f"{n}-inline")
def test_kill_and_resume_matches_uninterrupted(tmp_path, uninterrupted, shards):
    ref_world, reference = uninterrupted
    # Crash (via the fault harness) after the second of three weeks...
    world = _build()
    plan = FaultPlan().abort_campaign_after(_weeks(world)[1])
    with pytest.raises(InjectedFault):
        _campaign(world, checkpoint_dir=tmp_path, fault_plan=plan, shards=shards)
    # ...then resume on a fresh world: completed weeks rehydrate from
    # disk, the rest compute, and the result is the uninterrupted one.
    resumed_world = _build()
    resumed = _campaign(
        resumed_world, checkpoint_dir=tmp_path, resume=True, shards=shards
    )
    _assert_campaigns_equal(ref_world, reference, resumed_world, resumed)


def test_resume_survives_shard_and_executor_changes(tmp_path, uninterrupted):
    """Checkpoints key on results, not partition: write with 2 inline
    shards, resume with 4 — still golden."""
    ref_world, reference = uninterrupted
    world = _build()
    plan = FaultPlan().abort_campaign_after(_weeks(world)[0])
    with pytest.raises(InjectedFault):
        _campaign(world, shards=2, checkpoint_dir=tmp_path, fault_plan=plan)
    resumed_world = _build()
    resumed = _campaign(
        resumed_world, shards=4, checkpoint_dir=tmp_path, resume=True
    )
    _assert_campaigns_equal(ref_world, reference, resumed_world, resumed)


def test_corrupted_checkpoint_file_recomputes(tmp_path, uninterrupted):
    ref_world, reference = uninterrupted
    world = _build()
    _campaign(world, checkpoint_dir=tmp_path)
    files = sorted(tmp_path.rglob("*.ecnc"))
    assert len(files) == 3
    # Bit rot on one file, truncation on another.
    damaged = bytearray(files[0].read_bytes())
    damaged[len(damaged) // 2] ^= 0x10
    files[0].write_bytes(bytes(damaged))
    files[1].write_bytes(files[1].read_bytes()[:-7])
    resumed_world = _build()
    resumed = _campaign(resumed_world, checkpoint_dir=tmp_path, resume=True)
    _assert_campaigns_equal(ref_world, reference, resumed_world, resumed)


def test_checkpoint_corrupted_at_write_time_recomputes(tmp_path, uninterrupted):
    """A checkpoint damaged as it is written (fault hook) is simply
    never trusted on resume."""
    ref_world, reference = uninterrupted
    world = _build()
    weeks = _weeks(world)
    plan = (
        FaultPlan(seed=5)
        .corrupt_checkpoint(week=weeks[0], mode="bitflip")
        .abort_campaign_after(weeks[1])
    )
    with pytest.raises(InjectedFault):
        _campaign(world, checkpoint_dir=tmp_path, fault_plan=plan)
    resumed_world = _build()
    resumed = _campaign(resumed_world, checkpoint_dir=tmp_path, resume=True)
    _assert_campaigns_equal(ref_world, reference, resumed_world, resumed)


def test_checkpointer_rejects_key_and_week_mismatches(tmp_path):
    world = _build()
    week = world.config.reference_week
    key = campaign_checkpoint_key(
        world, vantage_id="main-aachen", populations=POPULATIONS
    )
    store = CampaignCheckpointer(tmp_path, key)
    entries = [(3, 0, None, 0.25)]
    store.store(week, entries)
    assert store.load(week) == entries
    # A different campaign identity resolves to a different key (and a
    # different subdirectory): nothing leaks across.
    other_key = campaign_checkpoint_key(
        world, vantage_id="main-aachen", populations=("cno",)
    )
    assert other_key != key
    assert CampaignCheckpointer(tmp_path, other_key).load(week) is None
    # A file renamed to another week's slot fails the embedded week check.
    other_week = world.config.start_week
    store.path_for(week).rename(store.path_for(other_week))
    assert store.load(other_week) is None
    # Missing file: plain None, no exception.
    assert store.load(week) is None


def test_rerun_without_resume_recomputes_and_overwrites(tmp_path, uninterrupted):
    ref_world, reference = uninterrupted
    first = _build()
    _campaign(first, checkpoint_dir=tmp_path)
    stamps = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*.ecnc")}
    second = _build()
    campaign = _campaign(second, checkpoint_dir=tmp_path)  # resume=False
    _assert_campaigns_equal(ref_world, reference, second, campaign)
    for path, stamp in stamps.items():
        assert path.stat().st_mtime_ns >= stamp  # rewritten, not reused


def test_checkpoint_validation_errors():
    world = _build()
    with pytest.raises(ValueError, match="resume"):
        run_campaign(world, resume=True)
    with pytest.raises(ValueError, match="shards"):
        run_campaign(world, checkpoint_dir="/tmp/nowhere")
    with pytest.raises(ValueError, match="tracebox"):
        run_campaign(
            world, shards=2, checkpoint_dir="/tmp/nowhere", run_tracebox=True
        )
    with pytest.raises(ValueError, match="cadence_weeks"):
        run_campaign(world, cadence_weeks=0)


def test_atomic_write_bytes(tmp_path):
    target = tmp_path / "deep" / "nested" / "file.bin"
    assert atomic_write_bytes(target, b"first") == target
    assert target.read_bytes() == b"first"
    atomic_write_bytes(target, b"second")  # overwrite in place
    assert target.read_bytes() == b"second"
    # No temp litter after successful publication.
    assert list(target.parent.glob("*.tmp")) == []
