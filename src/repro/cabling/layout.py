"""Physical layout and cabling analysis (paper Section 6).

The paper's cabling recommendation for small clusters and container data
centers is to place all switches in a central "switch cluster" (a few racks
at the physical centre of the floor) and run aggregate cable bundles out to
the server racks.  This module models a rectangular machine-room floor plan,
places server racks on a grid and the switch cluster at the centre, and
reports per-topology cabling metrics: cable count, length distribution, how
many runs exceed the 10 m electrical limit, and total cabling cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.expansion.cost import CostModel
from repro.topologies.base import Topology
from repro.utils.validation import require_positive


@dataclass
class CablingReport:
    """Cable counts, lengths and costs for one topology under one layout."""

    switch_to_switch_cables: int
    server_to_switch_cables: int
    cable_lengths_m: List[float] = field(default_factory=list)
    electrical_limit_m: float = 10.0
    total_cost: float = 0.0

    @property
    def total_cables(self) -> int:
        return self.switch_to_switch_cables + self.server_to_switch_cables

    @property
    def num_optical(self) -> int:
        return sum(1 for length in self.cable_lengths_m if length > self.electrical_limit_m)


class FloorPlan:
    """Rectangular data-center floor with a central switch cluster.

    Server racks are laid out on a square grid with ``rack_pitch_m`` spacing;
    all ToR/aggregation switches live in a switch cluster at the centre of
    the floor (the paper's recommended optimization), so every
    switch-to-switch cable stays within the cluster (``cluster_span_m``) and
    every server-to-switch cable runs from the rack to the cluster.
    """

    def __init__(
        self,
        num_racks: int,
        rack_pitch_m: float = 1.2,
        cluster_span_m: float = 3.0,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        require_positive(num_racks, "num_racks")
        require_positive(rack_pitch_m, "rack_pitch_m")
        require_positive(cluster_span_m, "cluster_span_m")
        self.num_racks = num_racks
        self.rack_pitch_m = rack_pitch_m
        self.cluster_span_m = cluster_span_m
        self.cost_model = cost_model or CostModel()
        self.grid_side = max(1, math.ceil(math.sqrt(num_racks)))

    # ------------------------------------------------------------------ #
    def rack_position(self, rack_index: int) -> Tuple[float, float]:
        """(x, y) coordinates in metres of the given rack on the floor grid."""
        if not 0 <= rack_index < self.num_racks:
            raise ValueError(f"rack_index {rack_index} out of range")
        row, column = divmod(rack_index, self.grid_side)
        return column * self.rack_pitch_m, row * self.rack_pitch_m

    def cluster_position(self) -> Tuple[float, float]:
        """Coordinates of the central switch cluster."""
        span = (self.grid_side - 1) * self.rack_pitch_m
        return span / 2.0, span / 2.0

    def rack_to_cluster_length(self, rack_index: int) -> float:
        """Manhattan cable run from a rack to the switch cluster (plus slack)."""
        x, y = self.rack_position(rack_index)
        cx, cy = self.cluster_position()
        # 2 m of slack for vertical runs within the rack and the cluster.
        return abs(x - cx) + abs(y - cy) + 2.0

    # ------------------------------------------------------------------ #
    def report(self, topology: Topology, rack_of: Optional[Dict[Hashable, int]] = None) -> CablingReport:
        """Cabling report for ``topology`` placed on this floor plan.

        ``rack_of`` maps each server-hosting switch to a rack index; by
        default switches are assigned to racks round-robin in sorted order.
        Switch-to-switch cables stay inside the switch cluster
        (``cluster_span_m`` each); server cables run rack-to-cluster.
        """
        hosts = topology.server_hosts()
        if rack_of is None:
            rack_of = {
                switch: index % self.num_racks
                for index, switch in enumerate(sorted(hosts, key=str))
            }

        lengths: List[float] = []
        for _ in range(topology.num_links):
            lengths.append(self.cluster_span_m)
        for switch, count in topology.servers.items():
            if count == 0:
                continue
            rack = rack_of.get(switch, 0)
            run = self.rack_to_cluster_length(rack)
            lengths.extend([run] * count)

        total_cost = sum(self.cost_model.cable_cost(length) for length in lengths)
        return CablingReport(
            switch_to_switch_cables=topology.num_links,
            server_to_switch_cables=topology.num_servers,
            cable_lengths_m=lengths,
            electrical_limit_m=self.cost_model.electrical_cable_limit_m,
            total_cost=total_cost,
        )

    def compare(self, first: Topology, second: Topology) -> Dict[str, float]:
        """Relative cabling metrics of ``first`` vs ``second`` (e.g. Jellyfish vs fat-tree)."""
        report_a = self.report(first)
        report_b = self.report(second)
        if report_b.total_cables == 0 or report_b.total_cost == 0:
            raise ValueError("second topology has no cables to compare against")
        return {
            "cable_count_ratio": report_a.total_cables / report_b.total_cables,
            "cable_cost_ratio": report_a.total_cost / report_b.total_cost,
            "optical_fraction_first": (
                report_a.num_optical / report_a.total_cables if report_a.total_cables else 0.0
            ),
            "optical_fraction_second": (
                report_b.num_optical / report_b.total_cables if report_b.total_cables else 0.0
            ),
        }
