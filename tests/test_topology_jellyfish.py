"""Tests for the Jellyfish topology (construction and incremental expansion)."""

import pytest

from repro.topologies.base import TopologyError
from repro.topologies.jellyfish import JellyfishTopology


class TestBuild:
    def test_rrg_shape(self):
        topo = JellyfishTopology.build(20, 6, 4, rng=1)
        assert topo.num_switches == 20
        assert all(d == 4 for _, d in topo.graph.degree())
        assert topo.num_servers == 20 * 2

    def test_servers_default_to_remaining_ports(self):
        topo = JellyfishTopology.build(10, 8, 5, rng=2)
        assert all(count == 3 for count in topo.servers.values())

    def test_explicit_servers_per_switch(self):
        topo = JellyfishTopology.build(10, 8, 5, rng=3, servers_per_switch=1)
        assert topo.num_servers == 10

    def test_connected_at_paper_degrees(self):
        topo = JellyfishTopology.build(50, 10, 5, rng=4)
        assert topo.is_connected()

    def test_odd_total_degree_leaves_single_port(self):
        # 5 switches with network degree 3: product is odd, so the graph is
        # built at degree 2 and at most a handful of ports stay free.
        topo = JellyfishTopology.build(5, 5, 3, rng=5)
        assert topo.num_switches == 5
        topo.validate()

    def test_degree_exceeding_ports_rejected(self):
        with pytest.raises(TopologyError):
            JellyfishTopology.build(10, 4, 5)

    def test_servers_plus_degree_exceeding_ports_rejected(self):
        with pytest.raises(TopologyError):
            JellyfishTopology.build(10, 6, 4, servers_per_switch=3)


class TestFromEquipment:
    def test_all_ports_used(self):
        topo = JellyfishTopology.from_equipment(20, 6, 30, rng=1)
        # Servers spread evenly (1 or 2 per switch) and every remaining port
        # is cabled into the network (at most one port unmatched overall).
        free = sum(topo.free_ports(node) for node in topo.graph.nodes)
        assert free <= 1
        assert topo.num_servers == 30

    def test_even_spread(self):
        topo = JellyfishTopology.from_equipment(10, 6, 25, rng=2)
        counts = sorted(topo.servers.values())
        assert counts[0] >= 2 and counts[-1] <= 3

    def test_too_many_servers_rejected(self):
        with pytest.raises(TopologyError):
            JellyfishTopology.from_equipment(10, 4, 40)

    def test_zero_servers(self):
        topo = JellyfishTopology.from_equipment(10, 4, 0, rng=3)
        assert topo.num_servers == 0


class TestIncrementalExpansion:
    def test_add_switch_preserves_degrees(self):
        topo = JellyfishTopology.build(20, 6, 4, rng=1)
        degrees_before = dict(topo.graph.degree())
        topo.add_switch("new", 6, servers=2, rng=2)
        # Existing switches keep their degree: each removed link is replaced
        # by a link to the new switch.
        for node, degree in topo.graph.degree():
            if node == "new":
                continue
            assert degree == degrees_before[node]

    def test_add_switch_uses_its_ports(self):
        topo = JellyfishTopology.build(20, 6, 4, rng=3)
        topo.add_switch("new", 6, servers=2, rng=4)
        assert topo.graph.degree("new") == 4
        assert topo.servers["new"] == 2

    def test_add_rack_requires_servers(self):
        topo = JellyfishTopology.build(20, 6, 4, rng=5)
        with pytest.raises(TopologyError):
            topo.add_rack("new", 6, servers=0)

    def test_duplicate_switch_rejected(self):
        topo = JellyfishTopology.build(20, 6, 4, rng=6)
        with pytest.raises(TopologyError):
            topo.add_switch(0, 6)

    def test_expand_adds_counted_racks(self):
        topo = JellyfishTopology.build(20, 6, 4, rng=7)
        topo.expand(5, 6, 2, rng=8)
        assert topo.num_switches == 25
        assert topo.num_servers == 20 * 2 + 5 * 2
        assert topo.is_connected()

    def test_heterogeneous_expansion(self):
        topo = JellyfishTopology.build(20, 6, 4, rng=9)
        topo.add_switch("big", 12, servers=4, rng=10)
        assert topo.graph.degree("big") == 8
        topo.validate()

    def test_expansion_keeps_total_link_count(self):
        topo = JellyfishTopology.build(20, 6, 4, rng=11)
        links_before = topo.num_links
        topo.add_switch("new", 6, servers=2, rng=12)
        # Every pair of new ports removes one link and adds two.
        assert topo.num_links == links_before + 2

    def test_rewired_links_for_expansion(self):
        topo = JellyfishTopology.build(20, 6, 4, rng=13)
        assert topo.rewired_links_for_expansion(4) == 2
        with pytest.raises(ValueError):
            topo.rewired_links_for_expansion(-2)
