"""Deterministic fault injection for the campaign runtime.

A :class:`FaultPlan` is a seeded, declarative list of failures to
inject into a run: corrupt a checkpoint file as it is written, or
abort a campaign between weeks (the kill-and-resume tests' "crash").
The runtime calls the plan's hooks at the two places those faults
strike — the checkpoint writer and the campaign week loop — and a plan
with no matching rule is a no-op at both.

Determinism is the design constraint.  Rules match on the week they
target, never on mutable counters, so the same plan injects the same
faults into every execution of the same run.  Corruption is seeded:
byte positions and flip masks come from an
:class:`~repro.util.rng.RngStream` derived from the plan seed and the
target week, so a corrupted file is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import RngStream
from repro.util.weeks import Week


class InjectedFault(RuntimeError):
    """An error raised (not simulated) by an injected fault rule."""


@dataclass(frozen=True)
class _Rule:
    """One fault rule: what to do, and the week it matches.

    A ``None`` week is a wildcard (every checkpoint write).
    """

    action: str  # "corrupt_checkpoint" | "abort"
    week: Week | None = None
    mode: str = "bitflip"  # corruption shape: "bitflip" | "truncate"

    def matches(self, week: Week) -> bool:
        return self.week is None or week == self.week


def _corrupt(buf: bytes, mode: str, rng: RngStream) -> bytes:
    """Deterministically damage ``buf``: one bit flip, or a truncation."""
    if not buf:
        return buf
    if mode == "bitflip":
        position = rng.randrange(len(buf))
        bit = 1 << rng.randrange(8)
        out = bytearray(buf)
        out[position] ^= bit
        return bytes(out)
    if mode == "truncate":
        # Keep at least one byte missing; cutting to zero length is the
        # degenerate case the magic check already catches trivially.
        return buf[: rng.randrange(len(buf))]
    raise ValueError(f"unknown corruption mode: {mode!r}")


class FaultPlan:
    """A seeded set of fault rules, built with chainable methods.

    >>> plan = (
    ...     FaultPlan(seed=7)
    ...     .corrupt_checkpoint(week=Week(2022, 26), mode="truncate")
    ...     .abort_campaign_after(Week(2022, 30))
    ... )

    Hook methods are called by the runtime (checkpointer, campaign
    loop); they are no-ops unless a rule matches the call's week.  The
    runtime never mutates a plan.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rules: list[_Rule] = []

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def _add(self, rule: _Rule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def corrupt_checkpoint(
        self, *, week: Week | None = None, mode: str = "bitflip"
    ) -> "FaultPlan":
        """Damage a checkpoint file's bytes as they are written."""
        if mode not in ("bitflip", "truncate"):
            raise ValueError(f"unknown corruption mode: {mode!r}")
        return self._add(_Rule("corrupt_checkpoint", week=week, mode=mode))

    def abort_campaign_after(self, week: Week) -> "FaultPlan":
        """Raise :class:`InjectedFault` after ``week`` completes — the
        simulated crash of the kill-and-resume tests."""
        return self._add(_Rule("abort", week=week))

    # ------------------------------------------------------------------
    # Runtime hooks
    # ------------------------------------------------------------------
    def mangle_checkpoint_bytes(self, buf: bytes, week: Week) -> bytes:
        """Writer-side hook over a checkpoint file's encoded bytes."""
        for rule in self.rules:
            if rule.action == "corrupt_checkpoint" and rule.matches(week):
                rng = RngStream(self.seed, f"fault/checkpoint/{week}/{rule.mode}")
                buf = _corrupt(buf, rule.mode, rng)
        return buf

    def after_week(self, week: Week) -> None:
        """Campaign-loop hook, called after a week's run is recorded."""
        for rule in self.rules:
            if rule.action == "abort" and rule.week == week:
                raise InjectedFault(f"injected campaign abort after {week}")
