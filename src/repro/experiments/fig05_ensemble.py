"""Fig 5 ensemble variant: path-length scaling with per-size error bars.

Fig 5 plots one sampled topology per size; the paper's claim ("mean path
length stays below ~2.7, diameter at most 4") is really a statement about
almost every random regular graph.  This sweep samples ``num_instances``
independent RRGs per size -- each instance is its own scenario point, so
the grid shards across workers and caches per instance -- and reports
mean/std across the ensemble.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.utils.stats import mean_std

_SCALES = {
    "small": {
        "ports": 12,
        "network_degree": 9,
        "switch_counts": [20, 40],
        "num_instances": 5,
        "method": "stubs",
    },
    "paper": {
        "ports": 48,
        "network_degree": 36,
        "switch_counts": [100, 400, 800, 1600, 3200],
        "num_instances": 20,
        "method": "stubs",
    },
}

_TARGET = "repro.topologies.ensemble:ensemble_instance_metrics"


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    config = _SCALES[scale]
    return [
        ScenarioSpec.grid(
            _TARGET,
            name=f"fig05-ens-{count}",
            seed=seed,
            seed_strategy="derived",
            num_switches=count,
            ports=config["ports"],
            network_degree=config["network_degree"],
            method=config["method"],
            instance=list(range(config["num_instances"])),
        )
        for count in config["switch_counts"]
    ]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    servers_per_switch = config["ports"] - config["network_degree"]
    result = ExperimentResult(
        experiment_id="fig05-ens",
        title=(
            f"Path length vs servers over {config['num_instances']}-instance "
            f"ensembles (k={config['ports']}, r={config['network_degree']}, "
            f"method={config['method']})"
        ),
        columns=[
            "num_servers",
            "instances",
            "connected_fraction",
            "mean_path_length_mean",
            "mean_path_length_std",
            "diameter_mean",
            "diameter_max",
        ],
        notes="statistics over connected instances; construction is the "
        "vectorized stub-matching RRG with splice repair",
    )
    iterator = iter(values)
    for count in config["switch_counts"]:
        metrics = [next(iterator) for _ in range(config["num_instances"])]
        connected = [m for m in metrics if m["connected"]]
        paths = [m["mean_path_length"] for m in connected if "mean_path_length" in m]
        diameters = [float(m["diameter"]) for m in connected if "diameter" in m]
        path_mean, path_std = mean_std(paths)
        diameter_mean, _ = mean_std(diameters)
        result.add_row(
            count * servers_per_switch,
            len(metrics),
            len(connected) / len(metrics) if metrics else float("nan"),
            path_mean,
            path_std,
            diameter_mean,
            max(diameters) if diameters else float("nan"),
        )
    return result

