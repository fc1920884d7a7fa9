"""Fig 2(a): normalized bisection bandwidth vs number of servers (equal cost).

For fixed switching equipment -- N switches of k ports -- Jellyfish trades
servers against network degree: hosting S servers leaves r = k - S/N ports
per switch for the random interconnect.  The Bollobás lower bound gives the
bisection bandwidth of the resulting RRG, normalized by the server bandwidth
in one partition.  The fat-tree built from the same equipment appears as a
single point: k^3/4 servers at normalized bisection 1.0.

Every curve point is a pure function of ``(num_switches, ports, servers)``,
so the figure is declared as a scenario grid (one spec per equipment config,
one axis over server counts) and each point is independently cacheable and
shardable across workers.
"""

from __future__ import annotations

import math
from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.graphs.bisection import bollobas_bisection_lower_bound
from repro.topologies.fattree import fattree_num_servers
from repro.utils.validation import require_positive

_SCALES = {
    "small": [(720, 24), (1280, 32)],
    "paper": [(720, 24), (1280, 32), (2880, 48)],
}

_STEPS = 12

_TARGET = "repro.experiments.fig02a_bisection:jellyfish_curve_point"


def jellyfish_curve_point(num_switches: int, ports: int, servers: int) -> float:
    """Normalized bisection bandwidth of RRG equipment hosting ``servers``."""
    require_positive(servers, "servers")
    servers_per_switch = servers / num_switches
    network_degree = ports - math.ceil(servers_per_switch)
    if network_degree <= 0:
        return 0.0
    bound = bollobas_bisection_lower_bound(num_switches, network_degree)
    return bound / (servers / 2.0)


def _server_axis(num_switches: int, ports: int) -> List[int]:
    max_servers = num_switches * (ports - 1)
    return [int(round(step * max_servers / _STEPS)) for step in range(1, _STEPS + 1)]


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [
        ScenarioSpec.grid(
            _TARGET,
            name=f"fig02a-{num_switches}x{ports}",
            num_switches=num_switches,
            ports=ports,
            servers=_server_axis(num_switches, ports),
        )
        for num_switches, ports in _SCALES[scale]
    ]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig02a",
        title="Normalized bisection bandwidth vs servers (equal equipment)",
        columns=[
            "num_switches",
            "ports",
            "servers",
            "jellyfish_normalized_bisection",
            "fattree_servers_same_equipment",
        ],
        notes="fat-tree reference point has normalized bisection 1.0 by construction",
    )
    iterator = iter(values)
    for num_switches, ports in _SCALES[scale]:
        fattree_servers = fattree_num_servers(ports)
        for servers in _server_axis(num_switches, ports):
            result.add_row(num_switches, ports, servers, next(iterator), fattree_servers)
    return result

