"""Tests for the Clos (LEGUP-like) and Jellyfish expansion planners."""

import pytest

from repro.expansion.cost import CostModel
from repro.expansion.legup import ClosExpansionPlanner
from repro.expansion.planner import JellyfishExpansionPlanner
from repro.topologies.clos import LeafSpineTopology


class TestClosPlanner:
    def test_initial_stage_adds_required_servers(self):
        planner = ClosExpansionPlanner(
            leaf_ports=24, spine_ports=48, servers_per_leaf=12,
            reserved_ports_per_leaf=3,
        )
        state = planner.expand(budget=100_000.0, new_servers=120)
        assert state.num_servers >= 120
        assert state.num_spines >= 1
        assert state.budget_spent_this_stage <= 100_000.0 + 1e-6

    def test_bisection_monotone_in_spines(self):
        planner = ClosExpansionPlanner(
            leaf_ports=24, spine_ports=48, servers_per_leaf=12,
            reserved_ports_per_leaf=3,
        )
        first = planner.expand(budget=40_000.0, new_servers=96)
        second = planner.expand(budget=40_000.0, new_servers=0)
        assert second.normalized_bisection_bandwidth() >= (
            first.normalized_bisection_bandwidth() - 1e-9
        )

    def test_structure_limits_spine_count(self):
        planner = ClosExpansionPlanner(
            leaf_ports=8, spine_ports=48, servers_per_leaf=4,
            reserved_ports_per_leaf=1,
        )
        state = planner.expand(budget=10_000_000.0, new_servers=16)
        # Only 3 uplink ports per leaf remain, so at most 3 spines fit.
        assert state.num_spines <= 3

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ClosExpansionPlanner(
                leaf_ports=10, spine_ports=48, servers_per_leaf=9,
                reserved_ports_per_leaf=2,
            )

    def test_to_topology(self):
        # A planned stage fits the leaf and spine port budgets when built.
        planner = ClosExpansionPlanner(
            leaf_ports=24, spine_ports=48, servers_per_leaf=12,
            reserved_ports_per_leaf=3,
        )
        state = planner.expand(budget=60_000.0, new_servers=48)
        topo = LeafSpineTopology.build(
            num_leaves=state.num_leaves,
            num_spines=state.num_spines,
            servers_per_leaf=state.servers_per_leaf,
            leaf_ports=24,
            spine_ports=48,
            links_per_pair=state.links_per_pair,
        )
        assert topo.num_servers == state.num_servers
        assert topo.is_connected()


class TestJellyfishPlanner:
    def test_initial_stage_builds_network(self):
        planner = JellyfishExpansionPlanner(
            switch_ports=12, servers_per_switch=6, rng=1
        )
        state = planner.expand(budget=50_000.0, new_servers=60)
        assert state.num_servers >= 60
        assert planner.topology.is_connected()
        assert state.normalized_bisection > 0.0

    def test_capacity_only_expansion_raises_bisection(self):
        planner = JellyfishExpansionPlanner(
            switch_ports=12, servers_per_switch=6, rng=2
        )
        first = planner.expand(budget=30_000.0, new_servers=48)
        second = planner.expand(budget=30_000.0, new_servers=0)
        assert second.num_servers == first.num_servers
        assert second.num_switches > first.num_switches
        assert second.normalized_bisection >= first.normalized_bisection - 0.05

    def test_budget_respected(self):
        planner = JellyfishExpansionPlanner(
            switch_ports=12, servers_per_switch=6, rng=3
        )
        planner.expand(budget=100_000.0, new_servers=48)
        state = planner.expand(budget=5_000.0, new_servers=0)
        assert state.budget_spent_this_stage <= 5_000.0 + 1e-6

    def test_initial_stage_requires_servers(self):
        planner = JellyfishExpansionPlanner(switch_ports=12, servers_per_switch=6)
        with pytest.raises(ValueError):
            planner.expand(budget=10_000.0, new_servers=0)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            JellyfishExpansionPlanner(switch_ports=8, servers_per_switch=8)


class TestHeadToHead:
    def test_jellyfish_more_cost_effective_than_clos(self):
        """The Fig 7 headline: same budgets, higher bisection for Jellyfish."""
        cost_model = CostModel()
        clos = ClosExpansionPlanner(
            leaf_ports=24, spine_ports=48, servers_per_leaf=15,
            reserved_ports_per_leaf=3, cost_model=cost_model,
        )
        jelly = JellyfishExpansionPlanner(
            switch_ports=24, servers_per_switch=15, cost_model=cost_model, rng=4
        )
        budgets = [60_000.0, 60_000.0, 60_000.0]
        servers = [120, 60, 0]
        clos_final, jelly_final = None, None
        for budget, new_servers in zip(budgets, servers):
            clos_final = clos.expand(budget, new_servers)
            jelly_final = jelly.expand(budget, new_servers)
        assert (
            jelly_final.normalized_bisection
            > clos_final.normalized_bisection_bandwidth()
        )
