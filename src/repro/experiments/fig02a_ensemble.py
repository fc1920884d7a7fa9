"""Fig 2(a) ensemble variant: measured bisection vs the Bollobás bound.

Fig 2(a) plots the *analytic* Bollobás lower bound; this sweep samples
concrete RRG instances per server count and measures a Kernighan–Lin
bisection estimate on each, reporting the ensemble mean/min next to the
bound -- the per-instance check that the figure's curve is honest.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.graphs.bisection import bollobas_bisection_lower_bound
from repro.utils.stats import mean_std

_SCALES = {
    "small": {
        "num_switches": 40,
        "ports": 8,
        "server_steps": [2, 4, 6],
        "steps_total": 8,
        "num_instances": 4,
        "trials": 2,
    },
    "paper": {
        "num_switches": 720,
        "ports": 24,
        "server_steps": [3, 6, 9],
        "steps_total": 12,
        "num_instances": 10,
        "trials": 5,
    },
}

_TARGET = "repro.topologies.ensemble:ensemble_bisection_point"


def _server_axis(config) -> List[int]:
    max_servers = config["num_switches"] * (config["ports"] - 1)
    return [
        int(round(step * max_servers / config["steps_total"]))
        for step in config["server_steps"]
    ]


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    config = _SCALES[scale]
    return [
        ScenarioSpec.grid(
            _TARGET,
            name=f"fig02a-ens-{servers}",
            seed=seed,
            seed_strategy="derived",
            num_switches=config["num_switches"],
            ports=config["ports"],
            servers=servers,
            trials=config["trials"],
            instance=list(range(config["num_instances"])),
        )
        for servers in _server_axis(config)
    ]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    result = ExperimentResult(
        experiment_id="fig02a-ens",
        title=(
            f"Measured normalized bisection over "
            f"{config['num_instances']}-instance ensembles "
            f"({config['num_switches']} switches x {config['ports']} ports)"
        ),
        columns=[
            "servers",
            "network_degree",
            "instances",
            "measured_mean",
            "measured_std",
            "measured_min",
            "bollobas_bound",
        ],
        notes="measured = Kernighan-Lin cut estimate (upper bound on the "
        "true bisection) normalized by one partition's server bandwidth",
    )
    iterator = iter(values)
    for servers in _server_axis(config):
        points = [next(iterator) for _ in range(config["num_instances"])]
        measured = [p["normalized_bisection"] for p in points]
        degree = points[0]["network_degree"]
        bound = (
            bollobas_bisection_lower_bound(config["num_switches"], degree)
            / (servers / 2.0)
            if degree > 0
            else 0.0
        )
        mean, std = mean_std(measured)
        result.add_row(
            servers, degree, len(points), mean, std, min(measured), bound
        )
    return result

