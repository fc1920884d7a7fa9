"""Fig 10: k-shortest-path + MPTCP throughput vs optimal (LP) routing.

On slightly oversubscribed Jellyfish topologies of increasing size, the
paper compares the throughput achieved by 8-shortest-path routing with
MPTCP against the CPLEX optimum, finding the practical scheme reaches
86-90% of optimal.  Our fluid simulator plays the packet simulator's role
and the path LP plays CPLEX's (DESIGN.md, substitutions 1 and 2).
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.flow.throughput import normalized_throughput
from repro.simulation.fluid import MPTCP, SimulationConfig, simulate_fluid
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic
from repro.utils.rng import ensure_rng
from repro.utils.stats import mean

_SCALES = {
    # (num_switches, ports, network_degree): oversubscribed (more servers than
    # network ports) so routing inefficiency is visible, as in the paper.
    "small": {"configs": [(10, 7, 4), (20, 8, 5)], "trials": 2},
    "paper": {
        "configs": [(14, 10, 5), (33, 10, 5), (67, 10, 5), (120, 10, 5), (192, 10, 5)],
        "trials": 10,
    },
}

_TARGET = "repro.experiments.fig10_sim_vs_optimal:compute_rows"


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)
    sim_config = SimulationConfig(routing="ksp", k=8, congestion_control=MPTCP)

    rows = []
    for num_switches, ports, degree in config["configs"]:
        topology = JellyfishTopology.build(num_switches, ports, degree, rng=rng)
        optimal_values, sim_values = [], []
        for _ in range(config["trials"]):
            traffic = random_permutation_traffic(topology, rng=rng)
            optimal_values.append(
                normalized_throughput(topology, traffic, engine="path", k=12).normalized
            )
            sim_values.append(
                simulate_fluid(topology, traffic, sim_config, rng=rng).average_throughput
            )
        optimal = mean(optimal_values)
        simulated = mean(sim_values)
        ratio = simulated / optimal if optimal else 0.0
        rows.append([topology.num_servers, optimal, simulated, ratio])
    return rows


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig10", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig10",
        title="Jellyfish throughput: optimal (LP) routing vs 8-shortest-path + MPTCP",
        columns=[
            "num_servers",
            "optimal_throughput",
            "ksp_mptcp_throughput",
            "fraction_of_optimal",
        ],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
