"""Deterministic fault injection for the scenario engine.

:mod:`repro.testing.chaos` is the fault-injection harness the robustness
suite (``tests/test_runner_faults.py``) and the CI chaos-smoke job use to
prove the sweep engine's recovery paths: worker crashes, hangs, transient
exceptions and torn cache writes, injected on a deterministic schedule via
the ``REPRO_FAULTS`` environment variable so ``multiprocessing`` pool
workers inherit the plan with no extra plumbing.

It stays in the installed package because the runner and the lifecycle
engine read ``REPRO_FAULTS`` in production.  The tiny scenario targets the
engine tests run live outside it, in ``tests/oracles/targets.py``.

See ``docs/robustness.md`` for the fault-plan spec format.
"""

from repro.testing.chaos import (
    FAULTS_ENV,
    ChaosError,
    FaultPlan,
    FaultRule,
    active_plan,
)

__all__ = [
    "FAULTS_ENV",
    "ChaosError",
    "FaultPlan",
    "FaultRule",
    "active_plan",
]
