"""Fig 11: servers supported at the fat-tree's throughput, with real routing + CC.

The packet-level counterpart of Fig 2(c): for each equipment pool (a
fat-tree of k-port switches) find, by the same binary search
(:func:`repro.flow.throughput.largest_feasible`), the largest Jellyfish
server count whose average per-server throughput under 8-shortest-path
routing with MPTCP is at least the fat-tree's under ECMP with MPTCP.  The
paper reports >25% more servers at its largest simulated size.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.flow.throughput import largest_feasible
from repro.simulation.fluid import MPTCP, SimulationConfig, simulate_fluid
from repro.topologies.fattree import FatTreeTopology, server_search_range
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import ensure_rng
from repro.utils.stats import mean

_SCALES = {
    "small": {"port_counts": [4, 6], "trials": 2},
    "paper": {"port_counts": [6, 8, 10, 12, 14], "trials": 5},
}

_TARGET = "repro.experiments.fig11_servers_packet_level:compute_rows"


def _average_throughput(topology, config, trials, rng) -> float:
    return mean(
        simulate_fluid(topology, config=config, rng=rng).average_throughput
        for _ in range(trials)
    )


def max_jellyfish_servers_matching(
    num_switches: int,
    ports: int,
    target_throughput: float,
    lower: int,
    upper: int,
    trials: int,
    rng,
) -> int:
    """Binary-search the largest server count whose throughput >= target.

    Returns ``lower`` when even ``lower`` misses the target.
    """
    jellyfish_config = SimulationConfig(routing="ksp", k=8, congestion_control=MPTCP)

    def feasible(servers: int) -> bool:
        topology = JellyfishTopology.from_equipment(
            num_switches=num_switches, ports_per_switch=ports,
            num_servers=servers, rng=rng,
        )
        if not topology.is_connected():
            return False
        return _average_throughput(topology, jellyfish_config, trials, rng) >= target_throughput

    if not feasible(lower):
        return lower
    return largest_feasible(feasible, lower, upper)


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)
    trials = config["trials"]
    fattree_config = SimulationConfig(routing="ecmp", k=8, congestion_control=MPTCP)

    rows = []
    for ports in config["port_counts"]:
        fattree = FatTreeTopology.build(ports)
        target = _average_throughput(fattree, fattree_config, trials, rng)
        lower, upper = server_search_range(ports)
        best = max_jellyfish_servers_matching(
            num_switches=fattree.num_switches,
            ports=ports,
            target_throughput=target,
            lower=lower,
            upper=upper,
            trials=trials,
            rng=rng,
        )
        rows.append(
            [
                ports,
                fattree.total_ports,
                fattree.num_servers,
                target,
                best,
                best / fattree.num_servers,
            ]
        )
    return rows


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig11", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig11",
        title="Servers at the fat-tree's throughput, with routing and congestion control",
        columns=[
            "ports_per_switch",
            "equipment_total_ports",
            "fattree_servers",
            "fattree_throughput",
            "jellyfish_servers",
            "jellyfish_advantage",
        ],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
