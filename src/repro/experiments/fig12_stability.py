"""Fig 12: stability of the throughput results (min / mean / max over runs).

Repeats the routing + congestion-control simulation over independently drawn
topologies and traffic matrices at each size and reports the envelope; the
paper shows both Jellyfish and the fat-tree are stable, with Jellyfish's
average at least matching the fat-tree's while hosting more servers.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.simulation.fluid import MPTCP, SimulationConfig, simulate_fluid
from repro.topologies.fattree import FatTreeTopology, fattree_equipment
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import ensure_rng
from repro.utils.stats import summarize

_SCALES = {
    "small": {"port_counts": [4, 6], "runs": 3, "jellyfish_server_factor": 1.1},
    "paper": {"port_counts": [8, 10, 12, 14], "runs": 10, "jellyfish_server_factor": 1.25},
}

_TARGET = "repro.experiments.fig12_stability:compute_rows"


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)
    runs = config["runs"]
    fattree_config = SimulationConfig(routing="ecmp", k=8, congestion_control=MPTCP)
    jellyfish_config = SimulationConfig(routing="ksp", k=8, congestion_control=MPTCP)

    rows = []
    for ports in config["port_counts"]:
        fattree = FatTreeTopology.build(ports)
        fat_summary = summarize(
            [
                simulate_fluid(fattree, config=fattree_config, rng=rng).average_throughput
                for _ in range(runs)
            ]
        )
        rows.append(
            [
                "fat-tree", fattree.num_servers,
                fat_summary.minimum, fat_summary.mean, fat_summary.maximum,
            ]
        )

        equipment = fattree_equipment(ports, config["jellyfish_server_factor"])
        jelly_values = []
        for _ in range(runs):
            jellyfish = JellyfishTopology.from_equipment(*equipment, rng=rng)
            jelly_values.append(
                simulate_fluid(jellyfish, config=jellyfish_config, rng=rng).average_throughput
            )
        jelly_summary = summarize(jelly_values)
        rows.append(
            [
                "jellyfish", equipment[2],
                jelly_summary.minimum, jelly_summary.mean, jelly_summary.maximum,
            ]
        )
    return rows


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig12", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig12",
        title="Throughput stability across runs (varying topology and traffic)",
        columns=["topology", "num_servers", "min", "mean", "max"],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
