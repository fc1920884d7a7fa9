"""Fig 8, lived-in: failure resilience as a lifecycle time series.

The static Fig 8 fails a random *fraction* of links once and solves for
throughput.  This variant subjects an equipment-matched Jellyfish and
fat-tree to the **same seeded failure/repair lifecycle** -- identical
Poisson arrival times, MTTRs, and epoch instants, with victims drawn
per-family from the surviving equipment -- and reports each traffic
epoch's normalized throughput and server-pair availability side by side.
The time-average over the steady-state failure regime is the lifecycle
restatement of Fig 8's degradation claim: at matched equipment and higher
server count, Jellyfish degrades no faster than the fat-tree.

Engine-native: one grid whose only axis is the topology family, with
``seed_strategy="shared"`` so both rows live through the same schedule of
adversity.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.topologies.fattree import fattree_equipment

_SCALES = {
    "small": {
        "k": 4,
        "jellyfish_server_factor": 1.15,
        "lifecycle": {
            "duration_hours": 96.0,
            "link_failure_rate": 0.2,
            "switch_failure_rate": 0.02,
            "link_mttr_hours": 6.0,
            "switch_mttr_hours": 12.0,
            "epoch_interval_hours": 24.0,
            "epoch_engine": "path",
            "k": 8,
        },
    },
    "paper": {
        "k": 8,
        "jellyfish_server_factor": 1.26,
        "lifecycle": {
            "duration_hours": 720.0,
            "link_failure_rate": 0.5,
            "switch_failure_rate": 0.05,
            "link_mttr_hours": 12.0,
            "switch_mttr_hours": 24.0,
            "epoch_interval_hours": 48.0,
            "epoch_engine": "path",
            "k": 8,
        },
    },
}

_TARGET = "repro.lifecycle.engine:lifecycle_point"
_FAMILIES = ["jellyfish", "fattree"]


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    config = _SCALES[scale]
    num_switches, ports, num_servers = fattree_equipment(
        config["k"], config["jellyfish_server_factor"]
    )
    return [
        ScenarioSpec.grid(
            _TARGET,
            name="fig08-lifecycle",
            seed=seed,
            # Both families must receive the *same* seed: the event stream
            # (arrival times, epoch instants) is a pure function of
            # (config, seed), which is the identical-adversity guarantee.
            seed_strategy="shared",
            family=_FAMILIES,
            ports=ports,
            num_switches=num_switches,
            num_servers=num_servers,
            build_seed=seed,
            **config["lifecycle"],
        )
    ]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    num_switches, ports, num_servers = fattree_equipment(
        config["k"], config["jellyfish_server_factor"]
    )
    by_family = {value["family"]: value for value in values}
    jelly, fat = by_family["jellyfish"], by_family["fattree"]

    result = ExperimentResult(
        experiment_id="fig08-lifecycle",
        title=(
            f"Failure/repair lifecycle: Jellyfish ({num_servers} servers) vs "
            f"fat-tree ({fat['plant_servers']} servers) on {num_switches}x"
            f"{ports}-port switches, identical seeded event stream"
        ),
        columns=[
            "time_h",
            "jellyfish_throughput",
            "jellyfish_availability",
            "fattree_throughput",
            "fattree_availability",
        ],
    )
    for jelly_epoch, fat_epoch in zip(jelly["epochs"], fat["epochs"]):
        result.add_row(
            jelly_epoch["time_h"],
            jelly_epoch["throughput"],
            jelly_epoch["availability"],
            fat_epoch["throughput"],
            fat_epoch["availability"],
        )

    def _mean(records, name):
        values_ = [record[name] for record in records]
        return sum(values_) / len(values_) if values_ else 0.0

    result.notes = (
        "time-averaged throughput: "
        f"jellyfish {_mean(jelly['epochs'], 'throughput'):.4f}, "
        f"fattree {_mean(fat['epochs'], 'throughput'):.4f}; "
        "availability: "
        f"jellyfish {_mean(jelly['epochs'], 'availability'):.4f}, "
        f"fattree {_mean(fat['epochs'], 'availability'):.4f} "
        f"({jelly['events_applied']} events each)"
    )
    return result

