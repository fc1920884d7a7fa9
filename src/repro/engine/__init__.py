"""Scenario engine: declarative sweeps, sharded execution, result caching.

The engine is the shared execution layer behind the paper's evaluation grid
(topology family x size x routing x traffic x failures):

- :mod:`repro.engine.spec` -- :class:`ScenarioSpec` describes a sweep
  declaratively and expands it into content-hashed :class:`ScenarioPoint`\\ s.
- :mod:`repro.engine.runner` -- :class:`SweepRunner` shards points across
  supervised worker processes with per-point seeding, wall-clock timeouts,
  per-point memory budgets with ``oom``/``signal`` fault classification and
  an escalating degradation ladder (see :mod:`repro.resources`), bounded
  retry with deterministic backoff, quarantine of poison points, progress
  reporting and deterministic result ordering.
- :mod:`repro.engine.cache` -- :class:`ResultCache` stores each scenario's
  value on disk under its content hash, so re-runs and overlapping sweeps
  hit cache instead of re-solving LPs.
- :mod:`repro.engine.registry` -- every experiment (fig01..fig14, table1)
  is a sweep module, run only through :func:`run_sweep` (also behind
  ``repro sweep`` and the top-level CLI).

See ``docs/engine.md`` for semantics and examples.
"""

from repro.engine.cache import CacheStats, ResultCache, default_cache_root
from repro.engine.runner import (
    FaultStats,
    PointFailure,
    PointOutcome,
    SweepError,
    SweepFailure,
    SweepRunner,
    backoff_delay,
)
from repro.engine.spec import (
    ScenarioPoint,
    ScenarioSpec,
    canonical_json,
    content_hash,
    derive_seed,
    expand,
    normalize,
    resolve_target,
)
from repro.engine.registry import (
    get_sweep,
    list_sweeps,
    run_sweep,
    sweep_points,
    sweep_specs,
)
from repro.resources import (
    ExecutionProfile,
    MAX_DEGRADATION_LEVEL,
    PROFILE_LADDER,
    profile_for_level,
)

__all__ = [
    "CacheStats",
    "ExecutionProfile",
    "FaultStats",
    "MAX_DEGRADATION_LEVEL",
    "PROFILE_LADDER",
    "PointFailure",
    "PointOutcome",
    "ResultCache",
    "ScenarioPoint",
    "ScenarioSpec",
    "SweepError",
    "SweepFailure",
    "SweepRunner",
    "backoff_delay",
    "canonical_json",
    "content_hash",
    "default_cache_root",
    "derive_seed",
    "expand",
    "get_sweep",
    "list_sweeps",
    "normalize",
    "profile_for_level",
    "resolve_target",
    "run_sweep",
    "sweep_points",
    "sweep_specs",
]
