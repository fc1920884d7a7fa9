"""Tests for the fat-tree baseline topology."""

import pytest

from repro.topologies.base import TopologyError
from repro.topologies.fattree import (
    FatTreeTopology,
    fattree_equipment,
    fattree_num_servers,
    fattree_num_switches,
)


def switches_in_layer(topology, tag):
    """Switches whose identifier starts with the layer tag (core, agg, edge)."""
    return [node for node in topology.graph.nodes if node[0] == tag]


class TestFormulas:
    def test_servers(self):
        assert fattree_num_servers(4) == 16
        assert fattree_num_servers(48) == 27648

    def test_switches(self):
        assert fattree_num_switches(4) == 20
        assert fattree_num_switches(24) == 720

    @pytest.mark.parametrize("k", [4, 6, 8, 10, 12, 14])
    def test_equipment_matches_built_fattree(self, k):
        fattree = FatTreeTopology.build(k)
        assert set(fattree.ports.values()) == {k}
        assert fattree_equipment(k) == (fattree.num_switches, k, fattree.num_servers)
        for factor in (1.0, 1.1, 1.13, 1.137, 1.15, 1.25, 1.26):
            servers = int(round(fattree.num_servers * factor))
            assert fattree_equipment(k, factor) == (fattree.num_switches, k, servers)


class TestBuild:
    def test_k4_structure(self, small_fattree):
        assert small_fattree.num_switches == 20
        assert small_fattree.num_servers == 16
        # k^3/2 switch-to-switch links.
        assert small_fattree.num_links == 32
        assert small_fattree.is_connected()

    def test_k6_counts(self, medium_fattree):
        assert medium_fattree.num_switches == 45
        assert medium_fattree.num_servers == 54
        assert medium_fattree.num_links == 108

    def test_every_port_accounted_for(self, small_fattree):
        for node in small_fattree.graph.nodes:
            used = small_fattree.graph.degree(node) + small_fattree.servers[node]
            assert used == small_fattree.ports[node]

    def test_layers(self, small_fattree):
        assert len(switches_in_layer(small_fattree, "core")) == 4
        assert len(switches_in_layer(small_fattree, "agg")) == 8
        assert len(switches_in_layer(small_fattree, "edge")) == 8

    def test_core_switch_reaches_every_pod(self, small_fattree):
        for core in switches_in_layer(small_fattree, "core"):
            pods = {agg[1] for agg in small_fattree.graph.neighbors(core)}
            assert pods == set(range(4))

    def test_diameter_is_six_server_to_server(self, small_fattree):
        # Switch-level diameter 4 => server-to-server diameter 6.
        assert small_fattree.switch_diameter() == 4

    def test_odd_k_rejected(self):
        with pytest.raises(TopologyError):
            FatTreeTopology.build(5)

    def test_k_below_two_rejected(self):
        with pytest.raises(TopologyError):
            FatTreeTopology.build(0)

    def test_pod_helpers(self, small_fattree):
        # Edge and aggregation switches are (layer, pod, index); a pod's
        # edge switches link only to its own aggregation switches.
        for edge in switches_in_layer(small_fattree, "edge"):
            assert isinstance(edge[1], int)
            neighbors = list(small_fattree.graph.neighbors(edge))
            assert {node[0] for node in neighbors} == {"agg"}
            assert {node[1] for node in neighbors} == {edge[1]}
        pods = {agg[1] for agg in switches_in_layer(small_fattree, "agg")}
        assert pods == set(range(4))


class TestBisection:
    def test_full_bisection(self, small_fattree):
        assert small_fattree.normalized_bisection_bandwidth() == pytest.approx(1.0)
        assert small_fattree.bisection_bandwidth_edges() == pytest.approx(8.0)
