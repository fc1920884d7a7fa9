"""Registry of the paper's experiments as scenario sweeps.

Every table and figure (fig01..fig14, table1) is a module listed in
:data:`~repro.experiments.common.EXPERIMENTS`, and every such module is a
sweep with two entry points: ``build_specs(scale, seed)`` turns a problem
size and seed into :class:`~repro.engine.spec.ScenarioSpec`\\ s, and
``assemble(values, scale, seed)`` turns the sweep's values back into the
experiment's :class:`~repro.experiments.common.ExperimentResult`.
:func:`run_sweep` is the one way to run a figure.

Figures whose data points are independent (``fig02a``, ``fig02b``, ...)
declare per-point grids; figures whose rows share one rng stream run
whole as a single scenario point, which keeps their rows bit-identical
while still gaining content-addressed caching and a uniform CLI.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import List, Optional

from repro.engine.runner import SweepRunner
from repro.engine.spec import ScenarioPoint, ScenarioSpec, expand
from repro.experiments.common import EXPERIMENTS, ExperimentResult

#: Default per-point wall-clock timeout (seconds) for supervised runs.  A
#: single-point figure builds every topology and solves every LP inside one
#: point, and a hyperscale point samples a 100k-switch RRG, so the ceiling
#: is an hour.  ``repro sweep run --timeout`` overrides it.
POINT_TIMEOUT_S = 3600.0


def list_sweeps() -> List[str]:
    """Identifiers of every registered sweep."""
    return sorted(EXPERIMENTS)


def get_sweep(sweep_id: str) -> ModuleType:
    """The sweep module behind ``sweep_id`` (``build_specs`` and ``assemble``)."""
    if sweep_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown sweep {sweep_id!r}; known: {', '.join(list_sweeps())}"
        )
    return importlib.import_module(EXPERIMENTS[sweep_id])


def sweep_specs(sweep_id: str, scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    """The scenario specs a sweep would run, without running them."""
    return get_sweep(sweep_id).build_specs(scale, seed)


def sweep_points(sweep_id: str, scale: str = "small", seed: int = 0) -> List[ScenarioPoint]:
    """The concrete scenario points a sweep would run, in execution order."""
    return expand(sweep_specs(sweep_id, scale, seed))


def run_sweep(
    sweep_id: str,
    scale: str = "small",
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Run a sweep with ``runner`` (serial, uncached by default) and assemble its result."""
    sweep = get_sweep(sweep_id)
    specs = sweep.build_specs(scale, seed)
    runner = runner if runner is not None else SweepRunner()
    return sweep.assemble(runner.run_values(expand(specs)), scale, seed)
