"""Deterministic fault injection (tests, CI smoke, robustness docs)."""

from repro.faults.plan import FaultPlan, InjectedFault

__all__ = [
    "FaultPlan",
    "InjectedFault",
]
