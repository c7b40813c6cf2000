"""Fault-injection smoke: recovery must be invisible in the output.

Not a perf benchmark — a CI robustness gate (docs/robustness.md).  It
runs the same scale-1000 campaign three ways over inline shards and
demands byte-identical results:

1. **clean** — no faults, ``shards=2``: the reference;
2. **kill-and-resume** — the campaign (``shards=2``, checkpointing) is
   aborted after its second week by the deterministic fault harness
   (:mod:`repro.faults`), then resumed from its checkpoint directory on
   a fresh world under a *different* partition (``shards=3``);
3. **corrupt-checkpoint-then-resume** — as leg 2, but the first week's
   checkpoint is bit-flipped as it is written
   (``FaultPlan.corrupt_checkpoint``); the resume must reject that file
   (one ``campaign.checkpoint.corrupt`` load), recompute the week and
   replay the intact one.

Each interrupted leg must match the clean run exactly: campaign
observations and site records, the analysis report, and the shared
clock.  Any divergence or missed fault exits non-zero::

    PYTHONPATH=src python benchmarks/bench_fault_injection.py
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import repro
from repro.analysis.report import longitudinal_report
from repro.faults import FaultPlan, InjectedFault
from repro.obs import Telemetry
from repro.scanner.results import DomainObservation
from repro.web.spec import WorldConfig

SCALE = 1_000
SHARDS = 2
RESUME_SHARDS = 3
POPULATIONS = ("cno", "toplist")

OBSERVATION_FIELDS = [f.name for f in dataclasses.fields(DomainObservation)]

_failures: list[str] = []


def _check(ok: bool, label: str) -> None:
    print(f"{'ok' if ok else 'FAIL'}: {label}")
    if not ok:
        _failures.append(label)


def _build() -> "repro.World":
    return repro.build_world(WorldConfig(scale=SCALE))


def _weeks(world):
    config = world.config
    return [config.start_week, config.start_week + 8, config.reference_week]


def _campaign(world, *, shards=SHARDS, **kwargs):
    return repro.run_campaign(
        world, weeks=_weeks(world), populations=POPULATIONS, shards=shards, **kwargs
    )


def _campaigns_equal(reference, candidate) -> bool:
    if reference.weeks() != candidate.weeks():
        return False
    for ref_run, run in zip(reference.runs, candidate.runs, strict=True):
        if len(ref_run.observations) != len(run.observations):
            return False
        for exp, act in zip(ref_run.observations, run.observations, strict=True):
            for name in OBSERVATION_FIELDS:
                if getattr(exp, name) != getattr(act, name):
                    return False
        if ref_run.site_records.keys() != run.site_records.keys():
            return False
        for index, exp_record in ref_run.site_records.items():
            act_record = run.site_records[index]
            if (exp_record.ip, exp_record.quic, exp_record.tcp) != (
                act_record.ip, act_record.quic, act_record.tcp
            ):
                return False
    return True


def _interrupt_and_resume(leg: str, plan: FaultPlan, checkpoint_dir: str):
    """Abort a checkpointed campaign via ``plan``, then resume it on a
    fresh world under a different shard count.  Returns the resumed
    campaign, its world and the resume's checkpoint counters."""
    killed_world = _build()
    try:
        _campaign(killed_world, checkpoint_dir=checkpoint_dir, fault_plan=plan)
    except InjectedFault:
        pass
    else:
        _check(False, f"{leg}: abort fault interrupted the campaign")
    stored = sorted(Path(checkpoint_dir).rglob("*.ecnc"))
    _check(len(stored) == 2,
           f"{leg}: two weeks checkpointed before the kill (found {len(stored)})")
    resumed_world = _build()
    telemetry = Telemetry()
    resumed = _campaign(
        resumed_world, shards=RESUME_SHARDS, checkpoint_dir=checkpoint_dir,
        resume=True, telemetry=telemetry,
    )
    registry = telemetry.registry
    counters = {
        name: int(registry.value(f"campaign.checkpoint.{name}", 0))
        for name in ("weeks_resumed", "corrupt", "misses")
    }
    print(f"{leg}: resumed on {RESUME_SHARDS} shards, checkpoint loads {counters}")
    return resumed_world, resumed, counters


def _check_matches_clean(leg, clean_world, clean, clean_report, world, campaign):
    _check(_campaigns_equal(clean, campaign),
           f"{leg}: campaign observations identical to clean run")
    _check(repr(longitudinal_report(campaign)) == clean_report,
           f"{leg}: analysis report identical to clean run")
    _check(world.clock.now == clean_world.clock.now,
           f"{leg}: clock identical to clean run")


def main() -> int:
    clean_world = _build()
    clean = _campaign(clean_world)
    clean_report = repr(longitudinal_report(clean))
    print(f"clean campaign: {len(clean.runs)} weeks, "
          f"{sum(len(r.observations) for r in clean.runs)} observations "
          f"({SHARDS} shards)")
    weeks = _weeks(clean_world)

    # ------------------------------------------------------------------
    # Leg 1: kill after the second week, resume from checkpoints.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        world, resumed, counters = _interrupt_and_resume(
            "kill-and-resume", FaultPlan().abort_campaign_after(weeks[1]),
            checkpoint_dir,
        )
        _check(counters == {"weeks_resumed": 2, "corrupt": 0, "misses": 1},
               "kill-and-resume: both stored weeks replayed, the third computed")
        _check_matches_clean("kill-and-resume", clean_world, clean, clean_report,
                             world, resumed)

    # ------------------------------------------------------------------
    # Leg 2: first week's checkpoint corrupted at write time, then the
    # same kill; the resume must distrust that file and recompute it.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        plan = (
            FaultPlan(seed=11)
            .corrupt_checkpoint(week=weeks[0], mode="bitflip")
            .abort_campaign_after(weeks[1])
        )
        world, resumed, counters = _interrupt_and_resume(
            "corrupt-checkpoint", plan, checkpoint_dir,
        )
        _check(counters == {"weeks_resumed": 1, "corrupt": 1, "misses": 1},
               "corrupt-checkpoint: damaged week rejected and recomputed, "
               "intact week replayed")
        _check_matches_clean("corrupt-checkpoint", clean_world, clean, clean_report,
                             world, resumed)

    if _failures:
        print(f"\n{len(_failures)} fault-injection check(s) failed",
              file=sys.stderr)
        return 1
    print("\nOK: every fault was absorbed; recovery is invisible in the output")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
