"""Tiny scenario targets for engine tests (importable from worker processes).

Real experiments cost seconds per point; the robustness suite needs dozens
of points per test, so these targets do trivial, deterministic work.  They
live inside the installed package (not under ``tests/``) so
``resolve_target`` can import them by dotted path in spawned workers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


def echo_point(x: int = 0, tag: str = "", seed: Optional[int] = None) -> Dict[str, Any]:
    """Return the inputs verbatim -- the cheapest possible scenario point."""
    return {"x": x, "tag": tag, "seed": seed}


def profile_point(
    x: int = 0, num_nodes: int = 1000, seed: Optional[int] = None
) -> Dict[str, Any]:
    """Echo the active execution profile -- the degradation ladder made visible.

    Returns the rung the point actually ran at plus what the profile's
    planners would do to a ``num_nodes``-node exact request, so ladder tests
    can assert rung sequences and bit-identical degraded values without any
    graph work.
    """
    from repro.resources import active_profile

    profile = active_profile()
    return {
        "x": x,
        "seed": seed,
        "level": profile.level,
        "sampled": profile.sampled,
        "planned_sources": profile.plan_sources(num_nodes, None),
        "planned_trials": profile.plan_trials(10),
    }


def hungry_point(
    x: int = 0, mb: float = 96.0, seed: Optional[int] = None
) -> Dict[str, Any]:
    """Allocate ``mb`` megabytes scaled by the active profile's memory scale.

    Under a tight ``memory_mb`` budget the full-fidelity attempt overruns
    the rlimit (raising ``MemoryError`` -> an ``oom`` fault), while a
    degraded re-dispatch allocates proportionally less and fits -- the
    memory-pressure path of the ladder, end to end, without real kernels.
    """
    from repro.resources import active_profile

    profile = active_profile()
    want = int(mb * 1024 * 1024 * profile.memory_scale)
    block = bytearray(want)
    block[::4096] = b"x" * len(block[::4096])  # touch pages so the VSZ is real
    size = len(block)
    del block
    return {"x": x, "seed": seed, "level": profile.level, "allocated": size}
