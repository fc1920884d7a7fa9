"""Fig 2(c): servers supported at full throughput vs equipment cost (optimal routing).

For each switch port count, the fat-tree fixes the equipment pool (5k^2/4
switches of k ports) and hosts k^3/4 servers at full capacity.  Using the
same equipment, a binary search finds the largest number of servers a
Jellyfish supports at full capacity under random-permutation traffic with
optimal (LP) routing.  The paper reports up to 27% more servers at the
largest size it could solve with CPLEX.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.flow.throughput import max_servers_at_full_throughput
from repro.topologies.fattree import fattree_equipment, server_search_range
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import ensure_rng

_SCALES = {
    "small": {"port_counts": [4, 6], "num_matrices": 2, "k_paths": 8},
    "paper": {"port_counts": [6, 8, 10, 12, 14], "num_matrices": 3, "k_paths": 12},
}

_TARGET = "repro.experiments.fig02c_servers_full_throughput:compute_rows"


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)

    rows = []
    for ports in config["port_counts"]:
        num_switches, _, fattree_servers = fattree_equipment(ports)

        def factory(num_servers: int, _ports=ports, _switches=num_switches):
            return JellyfishTopology.from_equipment(
                num_switches=_switches,
                ports_per_switch=_ports,
                num_servers=num_servers,
                rng=rng,
            )

        lower, upper = server_search_range(ports)
        best = max_servers_at_full_throughput(
            factory,
            lower=lower,
            upper=upper,
            num_matrices=config["num_matrices"],
            k=config["k_paths"],
            rng=rng,
        )
        rows.append(
            [ports, num_switches * ports, fattree_servers, best, best / fattree_servers]
        )
    return rows


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig02c", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig02c",
        title="Servers at full throughput vs equipment cost (optimal routing)",
        columns=[
            "ports_per_switch",
            "equipment_total_ports",
            "fattree_servers",
            "jellyfish_servers",
            "jellyfish_advantage",
        ],
        notes="advantage = jellyfish_servers / fattree_servers",
    )
    for row in values[0]:
        result.add_row(*row)
    return result
