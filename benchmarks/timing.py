"""Best-of timing for the ``benchmarks/record_*.py`` scripts.

Every measurement reads :data:`repro.telemetry.tracer.clock`, the clock the
tracer's spans use, so the checked-in ``BENCH_*.json`` numbers and the
JSONL span logs come from a single clock path (and a future clock swap --
e.g. ``perf_counter_ns`` -- happens in one place).

:func:`best_of` additionally emits a ``bench.best_of`` span per measured
callable when tracing is enabled, so a traced benchmark run shows its
repeat structure in ``repro stats`` without the scripts doing anything.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.telemetry.tracer import clock, trace


def best_of(
    callable_: Callable[[], object],
    repeats: int,
    setup: Optional[Callable[[], object]] = None,
    label: Optional[str] = None,
) -> float:
    """Minimum wall time of ``repeats`` calls (the benchmark scripts' metric).

    ``setup`` runs before each repeat *outside* the timed region (cache
    clearing in the cold-path benchmarks).  When tracing is enabled the
    whole measurement is wrapped in one ``bench.best_of`` span carrying the
    per-repeat timings, so traced benchmark runs are self-describing.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    samples: List[float] = []
    with trace("bench.best_of", label=label or getattr(callable_, "__name__", "?")) as span:
        for _ in range(repeats):
            if setup is not None:
                setup()
            start = clock()
            callable_()
            samples.append(clock() - start)
        span.add(repeats=repeats, best_s=min(samples))
    return min(samples)


def timed_best_of(
    callable_: Callable[[], object],
    repeats: int,
    setup: Optional[Callable[[], object]] = None,
):
    """Like :func:`best_of` but also returns the last call's value.

    Mirrors the ``timed`` helpers some benchmark scripts use to keep the
    measured result for cross-engine equality checks:
    returns ``(best_seconds, last_value)``.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    best = float("inf")
    value = None
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = clock()
        value = callable_()
        best = min(best, clock() - start)
    return best, value
