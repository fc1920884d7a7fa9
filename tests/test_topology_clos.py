"""Tests for the leaf-spine Clos topology."""

import pytest

from repro.simulation.capacity import link_capacities
from repro.topologies.base import TopologyError
from repro.topologies.clos import LEAF, SPINE, LeafSpineTopology


def switches_in_layer(topology, tag):
    """Switches whose identifier starts with the layer tag (leaf or spine)."""
    return [node for node in topology.graph.nodes if node[0] == tag]


class TestBuild:
    def test_shape(self):
        topo = LeafSpineTopology.build(
            num_leaves=4, num_spines=2, servers_per_leaf=3,
            leaf_ports=8, spine_ports=8,
        )
        assert topo.num_switches == 6
        assert topo.num_servers == 12
        assert topo.num_links == 8
        assert topo.is_connected()

    def test_every_leaf_connects_to_every_spine(self):
        topo = LeafSpineTopology.build(3, 2, 2, leaf_ports=8, spine_ports=8)
        for leaf in switches_in_layer(topo, LEAF):
            for spine in switches_in_layer(topo, SPINE):
                assert topo.graph.has_edge(leaf, spine)

    def test_parallel_links_modelled_as_capacity(self):
        topo = LeafSpineTopology.build(
            2, 2, 2, leaf_ports=8, spine_ports=8, links_per_pair=2
        )
        leaf = switches_in_layer(topo, LEAF)[0]
        spine = switches_in_layer(topo, SPINE)[0]
        capacity = topo.graph.edges[leaf, spine]["capacity"]
        assert capacity == 2.0

    def test_leaf_port_overflow_rejected(self):
        with pytest.raises(TopologyError):
            LeafSpineTopology.build(2, 4, 5, leaf_ports=8, spine_ports=16)

    def test_spine_port_overflow_rejected(self):
        with pytest.raises(TopologyError):
            LeafSpineTopology.build(20, 1, 2, leaf_ports=8, spine_ports=16)

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            LeafSpineTopology.build(0, 2, 2, leaf_ports=8, spine_ports=8)


class TestCapacityMetrics:
    def test_uplink_capacity_per_leaf(self):
        topo = LeafSpineTopology.build(4, 3, 2, leaf_ports=8, spine_ports=8)
        capacities = link_capacities(topo)
        for leaf in switches_in_layer(topo, LEAF):
            uplinks = sum(capacities[leaf, spine] for spine in switches_in_layer(topo, SPINE))
            assert uplinks == pytest.approx(3.0)

    def test_bisection(self):
        topo = LeafSpineTopology.build(4, 3, 2, leaf_ports=8, spine_ports=8)
        # 12 uplinks in total => bisection 6.
        assert topo.bisection_bandwidth_edges() == pytest.approx(6.0)
