"""Fig 13: flow fairness under k-shortest-path routing + MPTCP.

The paper reports the distribution of per-flow normalized throughputs and
Jain's fairness index for both topologies under one representative run:
~0.991 for the fat-tree, ~0.988 for Jellyfish -- both effectively fair.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.simulation.fluid import MPTCP, SimulationConfig, simulate_fluid
from repro.topologies.fattree import FatTreeTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic
from repro.utils.rng import ensure_rng
from repro.utils.stats import percentile

_SCALES = {
    "small": {"k": 6, "jellyfish_server_factor": 1.13},
    "paper": {"k": 14, "jellyfish_server_factor": 1.137},
}

_TARGET = "repro.experiments.fig13_fairness:compute_rows"


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)
    k = config["k"]

    fattree = FatTreeTopology.build(k)
    jellyfish = JellyfishTopology.from_equipment(
        num_switches=fattree.num_switches,
        ports_per_switch=k,
        num_servers=int(round(fattree.num_servers * config["jellyfish_server_factor"])),
        rng=rng,
    )
    cases = [
        ("fat-tree", fattree, SimulationConfig(routing="ecmp", k=8, congestion_control=MPTCP)),
        ("jellyfish", jellyfish, SimulationConfig(routing="ksp", k=8, congestion_control=MPTCP)),
    ]
    rows = []
    for name, topology, sim_config in cases:
        traffic = random_permutation_traffic(topology, rng=rng)
        outcome = simulate_fluid(topology, traffic, sim_config, rng=rng)
        flows = outcome.sorted_throughputs()
        rows.append(
            [
                name,
                len(flows),
                outcome.fairness,
                percentile(flows, 5),
                percentile(flows, 50),
                min(flows),
            ]
        )
    return rows


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig13", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig13",
        title="Flow fairness: per-flow throughput distribution and Jain's index",
        columns=[
            "topology",
            "num_flows",
            "jain_fairness_index",
            "p5_flow_throughput",
            "median_flow_throughput",
            "min_flow_throughput",
        ],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
