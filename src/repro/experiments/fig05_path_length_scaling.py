"""Fig 5: path length vs network size; from-scratch vs incrementally grown.

The paper uses 48-port switches with r = 36 network ports (12 servers each)
and grows the network from 100 to 3,200 switches, showing (a) the mean
switch-to-switch path length stays below ~2.7 and the diameter at most 4,
and (b) topologies grown incrementally from a small seed match topologies
built from scratch.

The incremental growth makes the sizes a single sequential scenario (each
stage expands the previous topology with the same rng stream), so the whole
figure is one engine scenario point rather than a per-size grid.  The
mean-path-length and diameter queries at each size share one memoized
all-pairs BFS sweep (the distance rows behind
:func:`repro.graphs.properties.path_length_distribution`).
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.graphs.properties import average_path_length, diameter
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import ensure_rng

_SCALES = {
    "small": {
        "ports": 12,
        "network_degree": 9,
        "switch_counts": [20, 40, 80],
    },
    "paper": {
        "ports": 48,
        "network_degree": 36,
        "switch_counts": [100, 400, 800, 1600, 3200],
    },
}

_TARGET = "repro.experiments.fig05_path_length_scaling:compute_scaling"


def compute_scaling(
    ports: int, network_degree: int, switch_counts: List[int], seed: int = 0
) -> dict:
    """Scenario target: path metrics at every size, scratch vs grown."""
    rng = ensure_rng(seed)
    servers_per_switch = ports - network_degree
    counts = list(switch_counts)

    rows = []
    # Incrementally grown topology starting from the smallest size.
    grown = JellyfishTopology.build(
        counts[0], ports, network_degree, rng=rng, servers_per_switch=servers_per_switch
    )
    for index, count in enumerate(counts):
        scratch = JellyfishTopology.build(
            count, ports, network_degree, rng=rng, servers_per_switch=servers_per_switch
        )
        if index > 0:
            grown.expand(
                count - grown.num_switches,
                ports,
                servers_per_switch,
                rng=rng,
                prefix=f"stage{index}",
            )
        rows.append(
            [
                count * servers_per_switch,
                average_path_length(scratch.csr()),
                diameter(scratch.csr()),
                average_path_length(grown.csr()),
                diameter(grown.csr()),
            ]
        )
    return {"rows": rows}


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    config = _SCALES[scale]
    return [
        ScenarioSpec(
            target=_TARGET,
            base={
                "ports": config["ports"],
                "network_degree": config["network_degree"],
                "switch_counts": list(config["switch_counts"]),
            },
            seed=seed,
            name="fig05",
        )
    ]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    result = ExperimentResult(
        experiment_id="fig05",
        title=(
            f"Path length vs servers (k={config['ports']}, "
            f"r={config['network_degree']}): from scratch vs expanded"
        ),
        columns=[
            "num_servers",
            "scratch_mean_path",
            "scratch_diameter",
            "expanded_mean_path",
            "expanded_diameter",
        ],
    )
    for row in values[0]["rows"]:
        result.add_row(*row)
    return result

