"""Tests for max-min fair allocation (progressive filling)."""

import pytest

from repro.flow.maxmin import FlowSpec, max_min_fair_allocation


class TestSingleLink:
    def test_two_flows_share_equally(self):
        flows = [
            FlowSpec("f1", [("a", "b")], demand=1.0),
            FlowSpec("f2", [("a", "b")], demand=1.0),
        ]
        allocation = max_min_fair_allocation(flows, {("a", "b"): 1.0})
        assert allocation.flow_rates["f1"] == pytest.approx(0.5)
        assert allocation.flow_rates["f2"] == pytest.approx(0.5)

    def test_demand_cap_frees_capacity(self):
        flows = [
            FlowSpec("small", [("a", "b")], demand=0.2),
            FlowSpec("big", [("a", "b")], demand=5.0),
        ]
        allocation = max_min_fair_allocation(flows, {("a", "b"): 1.0})
        assert allocation.flow_rates["small"] == pytest.approx(0.2)
        assert allocation.flow_rates["big"] == pytest.approx(0.8)

    def test_default_capacity_used_for_unknown_links(self):
        flows = [FlowSpec("f", [("x", "y")], demand=3.0)]
        allocation = max_min_fair_allocation(flows, {}, default_capacity=2.0)
        assert allocation.flow_rates["f"] == pytest.approx(2.0)


class TestClassicMaxMinExample:
    def test_three_flows_two_links(self):
        # f1 uses link1, f2 uses link2, f3 uses both (capacity 1 each).
        flows = [
            FlowSpec("f1", [("a", "b")], demand=10.0),
            FlowSpec("f2", [("b", "c")], demand=10.0),
            FlowSpec("f3", [("a", "b", "c")], demand=10.0),
        ]
        capacities = {("a", "b"): 1.0, ("b", "c"): 1.0}
        allocation = max_min_fair_allocation(flows, capacities)
        assert allocation.flow_rates["f3"] == pytest.approx(0.5, abs=1e-6)
        assert allocation.flow_rates["f1"] == pytest.approx(0.5, abs=1e-6)
        assert allocation.flow_rates["f2"] == pytest.approx(0.5, abs=1e-6)


class TestMultipath:
    def test_subflows_add_up(self):
        flows = [
            FlowSpec("f", [("a", "b"), ("a", "c", "b")], demand=2.0),
        ]
        capacities = {("a", "b"): 1.0, ("a", "c"): 1.0, ("c", "b"): 1.0}
        allocation = max_min_fair_allocation(flows, capacities)
        assert allocation.flow_rates["f"] == pytest.approx(2.0)

    def test_aggregate_demand_cap_enforced(self):
        flows = [
            FlowSpec("f", [("a", "b"), ("a", "c", "b")], demand=1.0),
        ]
        capacities = {("a", "b"): 1.0, ("a", "c"): 1.0, ("c", "b"): 1.0}
        allocation = max_min_fair_allocation(flows, capacities)
        assert allocation.flow_rates["f"] == pytest.approx(1.0)

    def test_per_subflow_caps(self):
        flows = [
            FlowSpec(
                "f",
                [("a", "b"), ("a", "c", "b")],
                demand=2.0,
                subflow_caps=[0.25, 0.25],
            ),
        ]
        capacities = {("a", "b"): 1.0, ("a", "c"): 1.0, ("c", "b"): 1.0}
        allocation = max_min_fair_allocation(flows, capacities)
        assert allocation.flow_rates["f"] == pytest.approx(0.5)

    def test_zero_hop_path_served_at_demand(self):
        flows = [FlowSpec("local", [("a",)], demand=0.7)]
        allocation = max_min_fair_allocation(flows, {})
        assert allocation.flow_rates["local"] == pytest.approx(0.7)


class TestInvariants:
    def test_no_link_overloaded(self):
        flows = [
            FlowSpec(f"f{i}", [("a", "b", "c"), ("a", "d", "c")], demand=1.0)
            for i in range(6)
        ]
        capacities = {
            ("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "d"): 1.0, ("d", "c"): 1.0,
        }
        allocation = max_min_fair_allocation(flows, capacities)
        for link, load in allocation.link_loads.items():
            assert load <= capacities.get(link, 1.0) + 1e-6

    def test_rates_non_negative_and_capped(self):
        flows = [
            FlowSpec(f"f{i}", [("a", "b")], demand=1.0) for i in range(5)
        ]
        allocation = max_min_fair_allocation(flows, {("a", "b"): 2.0})
        for rate in allocation.flow_rates.values():
            assert 0.0 <= rate <= 1.0 + 1e-9
        assert sum(allocation.flow_rates.values()) == pytest.approx(2.0)

    def test_flow_spec_validation(self):
        with pytest.raises(ValueError):
            FlowSpec("f", [("a", "b")], demand=0.0)
        with pytest.raises(ValueError):
            FlowSpec("f", [("a", "b")], demand=1.0, subflow_caps=[0.5, 0.5])

    def test_unrouted_flow_gets_zero_rate(self):
        # Degradation semantics: an empty path list models a demand whose
        # endpoints are unreachable; it claims nothing and receives 0.0.
        flows = [
            FlowSpec("stranded", [], demand=1.0),
            FlowSpec("routed", [("a", "b")], demand=1.0),
        ]
        allocation = max_min_fair_allocation(flows, {("a", "b"): 1.0})
        assert allocation.flow_rates["stranded"] == 0.0
        assert allocation.flow_rates["routed"] == pytest.approx(1.0)
