"""LEGUP-like budgeted Clos expansion planner.

LEGUP (Curtis et al., CoNEXT 2010) upgrades a Clos/fat-tree network under a
budget, buying aggregation capacity and deliberately reserving free ports to
ease later expansion steps.  Neither LEGUP's code nor its topologies are
publicly available, so this module implements a planner with the same
*shape* (see DESIGN.md, substitution 3):

* the network is a rigid leaf-spine Clos: every leaf connects to every spine
  with the same number of links;
* servers are added by buying new leaf switches (a fixed number of servers
  per leaf);
* network capacity is added by buying spine switches -- which requires a new
  cable to *every* leaf and a free uplink port on every leaf;
* a fraction of every leaf's ports is reserved for future spines, paid for
  up front (this is LEGUP's "keep some ports free" strategy);
* each stage spends at most its budget; whatever structure-induced spending
  (cables to every leaf, reserved ports, rewiring) is required comes out of
  the same budget.

The resulting bisection-bandwidth-per-dollar trajectory is compared against
the Jellyfish planner in Fig 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.expansion.cost import CostModel
from repro.utils.validation import require_integer, require_non_negative


@dataclass
class ClosExpansionState:
    """Snapshot of the Clos network after an expansion stage."""

    stage: int
    num_leaves: int
    num_spines: int
    servers_per_leaf: int
    links_per_pair: int
    cumulative_cost: float
    budget_spent_this_stage: float

    @property
    def num_servers(self) -> int:
        return self.num_leaves * self.servers_per_leaf

    @property
    def uplinks_per_leaf(self) -> int:
        return self.num_spines * self.links_per_pair

    def normalized_bisection_bandwidth(self) -> float:
        """Bisection (half the total uplink capacity) over server bandwidth/2.

        For a leaf-spine Clos the worst balanced cut separates half of the
        leaves from the other half and cuts half of the leaf-to-spine
        capacity.
        """
        if self.num_servers == 0:
            return 0.0
        bisection_edges = self.num_leaves * self.uplinks_per_leaf / 2.0
        return bisection_edges / (self.num_servers / 2.0)


class ClosExpansionPlanner:
    """Greedy budgeted expansion of a leaf-spine Clos network."""

    def __init__(
        self,
        leaf_ports: int = 24,
        spine_ports: int = 48,
        servers_per_leaf: int = 15,
        reserved_ports_per_leaf: int = 4,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        require_integer(leaf_ports, "leaf_ports")
        require_integer(spine_ports, "spine_ports")
        require_integer(servers_per_leaf, "servers_per_leaf")
        require_integer(reserved_ports_per_leaf, "reserved_ports_per_leaf")
        if servers_per_leaf + reserved_ports_per_leaf >= leaf_ports:
            raise ValueError(
                "leaf ports must exceed servers_per_leaf + reserved_ports_per_leaf"
            )
        self.leaf_ports = leaf_ports
        self.spine_ports = spine_ports
        self.servers_per_leaf = servers_per_leaf
        self.reserved_ports_per_leaf = reserved_ports_per_leaf
        self.cost_model = cost_model or CostModel()

        self.num_leaves = 0
        self.num_spines = 0
        self.links_per_pair = 1
        self.cumulative_cost = 0.0
        self.stage = -1
        self.history: List[ClosExpansionState] = []

    # ------------------------------------------------------------------ #
    def _uplink_ports_available_per_leaf(self) -> int:
        return self.leaf_ports - self.servers_per_leaf - self.reserved_ports_per_leaf

    def _leaf_cost(self) -> float:
        """Cost of one new leaf: the switch, its server cabling and uplinks."""
        switch = self.cost_model.switch_cost(self.leaf_ports)
        server_cables = self.cost_model.cables_cost(self.servers_per_leaf)
        uplink_cables = self.cost_model.cables_cost(
            self.num_spines * self.links_per_pair
        )
        return switch + server_cables + uplink_cables

    def _spine_cost(self) -> float:
        """Cost of one new spine: the switch plus a cable to every leaf."""
        switch = self.cost_model.switch_cost(self.spine_ports)
        cables = self.cost_model.cables_cost(self.num_leaves * self.links_per_pair)
        # The rigid structure forces touching every leaf during installation.
        rewiring = self.cost_model.rewiring_cost(self.num_leaves)
        return switch + cables + rewiring

    # ------------------------------------------------------------------ #
    def expand(self, budget: float, new_servers: int = 0) -> ClosExpansionState:
        """Run one expansion stage.

        Servers are added first (they are the stage's requirement); the
        remaining budget buys spine switches while the Clos structure admits
        them.  Spending never exceeds ``budget``; if the server requirement
        alone exceeds the budget the stage spends what it must and reports
        the overrun in the returned state's cost fields.
        """
        require_non_negative(budget, "budget")
        require_integer(new_servers, "new_servers")
        if new_servers < 0:
            raise ValueError("new_servers must be non-negative")
        self.stage += 1
        spent = 0.0

        # 1. Add the required servers (whole leaves).
        new_leaves = -(-new_servers // self.servers_per_leaf) if new_servers else 0
        for _ in range(new_leaves):
            cost = self._leaf_cost()
            self.num_leaves += 1
            spent += cost

        # 2. Buy spines with the remaining budget while ports allow.
        while True:
            max_uplinks = self._uplink_ports_available_per_leaf()
            if (self.num_spines + 1) * self.links_per_pair > max_uplinks:
                break  # leaves have no free uplink ports: structure is maxed out
            if self.num_leaves * self.links_per_pair > self.spine_ports:
                break  # a new spine could not reach every leaf
            cost = self._spine_cost()
            if spent + cost > budget:
                break
            self.num_spines += 1
            spent += cost

        self.cumulative_cost += spent
        state = ClosExpansionState(
            stage=self.stage,
            num_leaves=self.num_leaves,
            num_spines=self.num_spines,
            servers_per_leaf=self.servers_per_leaf,
            links_per_pair=self.links_per_pair,
            cumulative_cost=self.cumulative_cost,
            budget_spent_this_stage=spent,
        )
        self.history.append(state)
        return state
