"""Registry of the paper's experiments as scenario sweeps.

Every table and figure (fig01..fig14, table1) is registered as a
:class:`SweepDef`: a builder that turns ``(scale, seed)`` into a list of
:class:`~repro.engine.spec.ScenarioSpec` and an assembler that turns the
sweep's values back into the experiment's
:class:`~repro.experiments.common.ExperimentResult`.

Experiments whose data points are independent (``fig01``, ``fig02a``,
``fig02b``, ``fig05``) define their own grids and assemblers in their
modules ("engine-native"); the rest are wrapped as single-point scenarios
that run the legacy ``run(scale, seed)`` whole, which keeps their internal
rng streams -- and therefore their outputs -- bit-identical to running them
directly, while still gaining content-addressed caching and a uniform CLI.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.engine.runner import SweepRunner
from repro.engine.spec import ScenarioPoint, ScenarioSpec, expand
from repro.experiments.common import EXPERIMENTS, ExperimentResult

#: Experiments that define their grids natively through the engine.  The
#: ``*-ens`` entries are the ensemble variants: grids sweeping an instance
#: axis whose points build independent seeded topologies, so instance counts
#: shard across workers and cache per instance.
ENGINE_NATIVE = {
    "fig01": "repro.experiments.fig01_path_length",
    "fig02a": "repro.experiments.fig02a_bisection",
    "fig02a-ens": "repro.experiments.fig02a_ensemble",
    "fig02a-scale": "repro.experiments.fig02a_scale",
    "fig02b": "repro.experiments.fig02b_equipment_cost",
    "fig05": "repro.experiments.fig05_path_length_scaling",
    "fig05-ens": "repro.experiments.fig05_ensemble",
    "fig05-scale": "repro.experiments.fig05_scale",
    "fig08-ens": "repro.experiments.fig08_ensemble",
    "fig08-lifecycle": "repro.experiments.fig08_lifecycle",
    "fig12-dynamics": "repro.experiments.fig12_dynamics",
    "fig13-dynamics": "repro.experiments.fig13_dynamics",
}

SpecBuilder = Callable[[str, int], List[ScenarioSpec]]
Assembler = Callable[[List[Any], str, int], ExperimentResult]

#: Default per-point wall-clock timeouts (seconds) used by supervised runs.
#: Legacy experiments run *whole* as a single point (topology build + every
#: LP solve), so their ceiling is generous; engine-native points are one
#: scenario each and should never take anywhere near fifteen minutes.
#: ``repro sweep run --timeout`` overrides both.
LEGACY_POINT_TIMEOUT_S = 3600.0
NATIVE_POINT_TIMEOUT_S = 900.0

#: Native sweeps whose single points are legitimately long: the hyperscale
#: ``*-scale`` grids build and sample 100k-switch RRGs per point, so they
#: get the legacy-sized ceiling rather than the native default.
NATIVE_TIMEOUT_OVERRIDES: Dict[str, float] = {
    "fig05-scale": 3600.0,
    "fig02a-scale": 3600.0,
}


@dataclass(frozen=True)
class SweepDef:
    """One registered sweep: how to build its grid and assemble its result.

    ``timeout_s`` is the sweep's default per-point wall-clock budget for
    supervised execution (``None`` disables deadlines entirely),
    overridable from the CLI (``--timeout``).
    """

    sweep_id: str
    description: str
    build: SpecBuilder
    assemble: Assembler
    timeout_s: Optional[float] = None


_SWEEPS: Dict[str, SweepDef] = {}


def register_sweep(sweep: SweepDef) -> SweepDef:
    """Register (or replace) a sweep definition under its id."""
    _SWEEPS[sweep.sweep_id] = sweep
    return sweep


def list_sweeps() -> List[str]:
    """Identifiers of every registered sweep."""
    return sorted(_SWEEPS)


def get_sweep(sweep_id: str) -> SweepDef:
    if sweep_id not in _SWEEPS:
        raise KeyError(
            f"unknown sweep {sweep_id!r}; known: {', '.join(list_sweeps())}"
        )
    return _SWEEPS[sweep_id]


def sweep_specs(sweep_id: str, scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    """The scenario specs a sweep would run, without running them."""
    return get_sweep(sweep_id).build(scale, seed)


def sweep_points(sweep_id: str, scale: str = "small", seed: int = 0) -> List[ScenarioPoint]:
    """The concrete scenario points a sweep would run, in execution order."""
    return expand(sweep_specs(sweep_id, scale, seed))


def run_specs(
    specs: List[ScenarioSpec],
    assemble: Assembler,
    scale: str,
    seed: int,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Execute ``specs`` with ``runner`` (serial, uncached by default)."""
    runner = runner if runner is not None else SweepRunner()
    values = runner.run_values(expand(specs))
    return assemble(values, scale, seed)


def run_sweep(
    sweep_id: str,
    scale: str = "small",
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Run a registered sweep end-to-end and assemble its experiment result."""
    sweep = get_sweep(sweep_id)
    return run_specs(sweep.build(scale, seed), sweep.assemble, scale, seed, runner)


# --------------------------------------------------------------------------- #
# Legacy experiment wrapping: one scenario point runs the whole experiment.
# --------------------------------------------------------------------------- #
def experiment_point(experiment_id: str, scale: str = "small", seed: int = 0) -> dict:
    """Scenario target running a legacy experiment ``run()`` as one point."""
    module = importlib.import_module(EXPERIMENTS[experiment_id])
    result = module.run(scale=scale, seed=seed)
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "notes": result.notes,
    }


def result_from_value(value: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`experiment_point` output."""
    result = ExperimentResult(
        experiment_id=value["experiment_id"],
        title=value["title"],
        columns=list(value["columns"]),
        notes=value.get("notes", ""),
    )
    for row in value["rows"]:
        result.add_row(*row)
    return result


def _legacy_sweep(experiment_id: str) -> SweepDef:
    def build(scale: str, seed: int) -> List[ScenarioSpec]:
        return [
            ScenarioSpec.grid(
                "repro.engine.registry:experiment_point",
                name=experiment_id,
                seed=seed,
                experiment_id=experiment_id,
                scale=scale,
            )
        ]

    def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
        return result_from_value(values[0])

    return SweepDef(
        sweep_id=experiment_id,
        description=f"legacy experiment {EXPERIMENTS[experiment_id]} as one scenario point",
        build=build,
        assemble=assemble,
        timeout_s=LEGACY_POINT_TIMEOUT_S,
    )


def _native_sweep(experiment_id: str, module_path: str) -> SweepDef:
    def build(scale: str, seed: int) -> List[ScenarioSpec]:
        return importlib.import_module(module_path).build_specs(scale, seed)

    def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
        return importlib.import_module(module_path).assemble(values, scale, seed)

    return SweepDef(
        sweep_id=experiment_id,
        description=f"engine-native grid defined in {module_path}",
        build=build,
        assemble=assemble,
        timeout_s=NATIVE_TIMEOUT_OVERRIDES.get(experiment_id, NATIVE_POINT_TIMEOUT_S),
    )


for _experiment_id in EXPERIMENTS:
    if _experiment_id in ENGINE_NATIVE:
        register_sweep(_native_sweep(_experiment_id, ENGINE_NATIVE[_experiment_id]))
    else:
        register_sweep(_legacy_sweep(_experiment_id))
