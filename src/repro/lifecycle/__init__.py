"""Failure/repair lifecycle engine: months of simulated time over one plant.

Public surface:

* :class:`~repro.lifecycle.events.LifecycleConfig` /
  :func:`~repro.lifecycle.events.generate_events` -- deterministic seeded
  event streams (Poisson failures, exponential repairs, periodic expansion
  batches and traffic epochs);
* :class:`~repro.lifecycle.state.LifecycleState` -- the plant + failed-set
  state machine the metrics read;
* :func:`~repro.lifecycle.engine.run_lifecycle` /
  :func:`~repro.lifecycle.engine.lifecycle_point` -- the engine and its
  sweep-target wrapper;
* :class:`~repro.lifecycle.metrics.IncrementalMetrics` -- scoped-BFS
  component maintenance and cache-backed epoch evaluation (the cold-rebuild
  oracle it is pinned against lives in ``tests/oracles/lifecycle.py``).
"""

from repro.lifecycle.engine import (
    EPOCH_TARGET,
    EpochOutcome,
    LifecycleResult,
    epoch_hash,
    lifecycle_point,
    run_lifecycle,
)
from repro.lifecycle.events import (
    EPOCH,
    EXPAND,
    LINK_FAIL,
    LINK_REPAIR,
    SWITCH_FAIL,
    SWITCH_REPAIR,
    LifecycleConfig,
    LifecycleEvent,
    generate_events,
)
from repro.lifecycle.metrics import IncrementalMetrics
from repro.lifecycle.state import LifecycleState

__all__ = [
    "EPOCH",
    "EPOCH_TARGET",
    "EXPAND",
    "EpochOutcome",
    "IncrementalMetrics",
    "LINK_FAIL",
    "LINK_REPAIR",
    "LifecycleConfig",
    "LifecycleEvent",
    "LifecycleResult",
    "LifecycleState",
    "SWITCH_FAIL",
    "SWITCH_REPAIR",
    "epoch_hash",
    "generate_events",
    "lifecycle_point",
    "run_lifecycle",
]
