"""Fig 2(b): equipment cost (total ports) vs servers at full bisection bandwidth.

For each commodity port count the paper plots how many switch ports must be
purchased to support a given number of servers at full bisection bandwidth.
The fat-tree admits only one design point per port count (k^3/4 servers on
5k^3/4 ports); Jellyfish fills in the whole curve and needs fewer ports for
the same servers, with the advantage growing with the port count.

The Jellyfish curve point is a pure function of ``(ports, num_servers)``, so
the figure is a single scenario grid over both axes; each cell caches and
shards independently through the engine.
"""

from __future__ import annotations

import math
from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.graphs.bisection import bollobas_bisection_lower_bound
from repro.topologies.fattree import fattree_num_servers, fattree_num_switches

_SCALES = {
    "small": {"ports": [24, 32], "server_targets": [1000, 4000, 8000, 16000]},
    "paper": {
        "ports": [24, 32, 48, 64],
        "server_targets": [10000, 20000, 30000, 40000, 50000, 60000, 70000, 80000],
    },
}

_TARGET = "repro.experiments.fig02b_equipment_cost:jellyfish_min_ports_for_full_bisection"


def jellyfish_min_ports_for_full_bisection(ports: int, num_servers: int) -> int:
    """Smallest total port count achieving normalized bisection >= 1.

    Searches the number of switches N; each switch hosts ``num_servers / N``
    servers and uses the rest of its ports for the network.  Uses the
    Bollobás bound, as in the paper.
    """
    if ports < 2:
        raise ValueError("ports must be at least 2")
    low, high = max(2, num_servers // (ports - 1)), None
    n = low
    while True:
        servers_per_switch = math.ceil(num_servers / n)
        degree = ports - servers_per_switch
        if degree > 0:
            bound = bollobas_bisection_lower_bound(n, degree)
            if bound >= num_servers / 2.0:
                high = n
                break
        n = max(n + 1, int(n * 1.05))
        if n > 100 * max(1, num_servers):
            raise RuntimeError("failed to find a feasible Jellyfish size")
    # Refine downward: the predicate is monotone in n beyond the first hit.
    low = max(2, num_servers // (ports - 1))
    while low < high:
        middle = (low + high) // 2
        servers_per_switch = math.ceil(num_servers / middle)
        degree = ports - servers_per_switch
        feasible = (
            degree > 0
            and bollobas_bisection_lower_bound(middle, degree) >= num_servers / 2.0
        )
        if feasible:
            high = middle
        else:
            low = middle + 1
    return low * ports


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    config = _SCALES[scale]
    return [
        ScenarioSpec.grid(
            _TARGET,
            name="fig02b",
            ports=list(config["ports"]),
            num_servers=list(config["server_targets"]),
        )
    ]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    result = ExperimentResult(
        experiment_id="fig02b",
        title="Equipment cost (total ports) vs servers at full bisection bandwidth",
        columns=[
            "ports_per_switch",
            "servers",
            "jellyfish_total_ports",
            "fattree_servers_design_point",
            "fattree_total_ports",
        ],
    )
    iterator = iter(values)
    for ports in config["ports"]:
        fattree_servers = fattree_num_servers(ports)
        fattree_ports = fattree_num_switches(ports) * ports
        for servers in config["server_targets"]:
            result.add_row(
                ports, servers, next(iterator), fattree_servers, fattree_ports
            )
    return result

