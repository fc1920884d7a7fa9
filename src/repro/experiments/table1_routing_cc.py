"""Table 1: per-server throughput for routing x congestion-control combinations.

The paper compares a fat-tree against a Jellyfish that hosts ~14% more
servers on the same equipment, under {TCP 1 flow, TCP 8 flows, MPTCP 8
subflows} x {ECMP, 8-shortest-path routing}.  Findings: ECMP wastes
Jellyfish's capacity; with 8-shortest-path routing every congestion control
does at least as well on Jellyfish as on the fat-tree.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.simulation.fluid import (
    MPTCP,
    TCP_EIGHT_FLOWS,
    TCP_ONE_FLOW,
    SimulationConfig,
    simulate_fluid,
)
from repro.topologies.fattree import (
    FatTreeTopology,
    fattree_equipment,
    fattree_num_servers,
)
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import ensure_rng
from repro.utils.stats import mean

_SCALES = {
    "small": {"k": 6, "jellyfish_server_factor": 1.13, "trials": 2},
    "paper": {"k": 14, "jellyfish_server_factor": 1.137, "trials": 5},
}

_CONTROLS = [
    ("TCP 1 flow", TCP_ONE_FLOW),
    ("TCP 8 flows", TCP_EIGHT_FLOWS),
    ("MPTCP 8 subflows", MPTCP),
]

_TARGET = "repro.experiments.table1_routing_cc:compute_rows"


def _average(topology, routing, control, trials, rng) -> float:
    config = SimulationConfig(routing=routing, k=8, congestion_control=control)
    return mean(
        simulate_fluid(topology, config=config, rng=rng).average_throughput
        for _ in range(trials)
    )


def _jellyfish_equipment(config) -> tuple:
    return fattree_equipment(config["k"], config["jellyfish_server_factor"])


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the table, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)
    trials = config["trials"]

    fattree = FatTreeTopology.build(config["k"])
    jellyfish = JellyfishTopology.from_equipment(*_jellyfish_equipment(config), rng=rng)
    return [
        [
            label,
            _average(fattree, "ecmp", control, trials, rng),
            _average(jellyfish, "ecmp", control, trials, rng),
            _average(jellyfish, "ksp", control, trials, rng),
        ]
        for label, control in _CONTROLS
    ]


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="table1", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    result = ExperimentResult(
        experiment_id="table1",
        title=(
            f"Average per-server throughput (fraction of NIC rate): fat-tree "
            f"({fattree_num_servers(config['k'])} servers) vs Jellyfish "
            f"({_jellyfish_equipment(config)[2]} servers)"
        ),
        columns=[
            "congestion_control",
            "fattree_ecmp",
            "jellyfish_ecmp",
            "jellyfish_8_shortest_paths",
        ],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
