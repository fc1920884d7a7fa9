"""Fig 8 ensemble variant: failure resilience with per-fraction error bars.

Fig 8 fails one sampled Jellyfish per fraction; this sweep samples
``num_instances`` equipment-matched instances per failure fraction through
the vectorized mask-based failure path
(:func:`repro.failures.injection.fail_random_links_core`) and reports the
mean/std/min of normalized throughput -- the "a failed random graph is just
another random graph" claim as an ensemble statement.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.topologies.ensemble import _mean_std
from repro.topologies.fattree import FatTreeTopology

_SCALES = {
    "small": {
        "k": 4,
        "jellyfish_server_factor": 1.15,
        "fractions": [0.0, 0.1, 0.2],
        "num_instances": 4,
        "lp_k": 8,
    },
    "paper": {
        "k": 12,
        "jellyfish_server_factor": 1.26,
        "fractions": [0.0, 0.05, 0.10, 0.15, 0.20, 0.25],
        "num_instances": 10,
        "lp_k": 8,
    },
}

_TARGET = "repro.topologies.ensemble:ensemble_failure_point"


def _equipment(config) -> tuple:
    fattree = FatTreeTopology.build(config["k"])
    num_servers = int(
        round(fattree.num_servers * config["jellyfish_server_factor"])
    )
    return fattree.num_switches, config["k"], num_servers


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    config = _SCALES[scale]
    num_switches, ports, num_servers = _equipment(config)
    return [
        ScenarioSpec.grid(
            _TARGET,
            name=f"fig08-ens-{fraction}",
            seed=seed,
            seed_strategy="derived",
            num_switches=num_switches,
            ports=ports,
            num_servers=num_servers,
            fraction=fraction,
            k=config["lp_k"],
            instance=list(range(config["num_instances"])),
        )
        for fraction in config["fractions"]
    ]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    num_switches, ports, num_servers = _equipment(config)
    result = ExperimentResult(
        experiment_id="fig08-ens",
        title=(
            f"Throughput under random link failures over "
            f"{config['num_instances']}-instance ensembles "
            f"(jellyfish {num_servers} servers on {num_switches}x{ports}-port "
            "switches, mask-based failures)"
        ),
        columns=[
            "fraction_links_failed",
            "instances",
            "throughput_mean",
            "throughput_std",
            "throughput_min",
            "connected_fraction",
        ],
    )
    iterator = iter(values)
    for fraction in config["fractions"]:
        points = [next(iterator) for _ in range(config["num_instances"])]
        throughputs = [p["throughput"] for p in points]
        mean, std = _mean_std(throughputs)
        result.add_row(
            fraction,
            len(points),
            mean,
            std,
            min(throughputs),
            sum(1 for p in points if p["connected"]) / len(points),
        )
    return result

