"""Tests for Small-World Datacenter topologies."""

import pytest

from repro.topologies.base import TopologyError
from repro.topologies.core import TopologyCore
from repro.topologies.swdc import HEX_TORUS_3D, RING, TORUS_2D, SmallWorldTopology


class TestRing:
    def test_degree_filled_to_target(self):
        topo = SmallWorldTopology.build(40, RING, degree=6, rng=1)
        degrees = [topo.graph.degree(node) for node in topo.graph.nodes]
        assert max(degrees) == 6
        # At most a couple of nodes may fall one short when the random
        # completion gets stuck, exactly as in Jellyfish construction.
        assert sum(1 for d in degrees if d < 6) <= 2

    def test_contains_ring_lattice_links(self):
        topo = SmallWorldTopology.build(30, RING, degree=6, rng=2)
        for node in range(30):
            assert topo.graph.has_edge(node, (node + 1) % 30)

    def test_connected(self):
        topo = SmallWorldTopology.build(50, RING, degree=6, rng=3)
        assert topo.is_connected()

    def test_one_server_per_switch_by_default(self):
        topo = SmallWorldTopology.build(30, RING, degree=6, rng=4)
        assert topo.num_servers == 30


class TestTorus2D:
    def test_requires_square(self):
        with pytest.raises(TopologyError):
            SmallWorldTopology.build(30, TORUS_2D, degree=6)

    def test_lattice_degree_four_plus_shortcuts(self):
        topo = SmallWorldTopology.build(36, TORUS_2D, degree=6, rng=5)
        assert max(dict(topo.graph.degree()).values()) == 6
        assert topo.is_connected()


class TestHexTorus3D:
    def test_requires_two_s_squared(self):
        with pytest.raises(TopologyError):
            SmallWorldTopology.build(30, HEX_TORUS_3D, degree=6)

    def test_valid_size(self):
        topo = SmallWorldTopology.build(2 * 5 * 5, HEX_TORUS_3D, degree=6, rng=6)
        assert topo.num_switches == 50
        assert topo.is_connected()


class TestValidationAndHelpers:
    def test_unknown_variant(self):
        with pytest.raises(TopologyError):
            SmallWorldTopology.build(20, "moebius", degree=6)

    def test_degree_below_lattice_rejected(self):
        with pytest.raises(TopologyError):
            SmallWorldTopology.build(36, TORUS_2D, degree=3)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            SmallWorldTopology.build(3, RING, degree=6)

    def test_set_servers_per_switch(self):
        topo = SmallWorldTopology.build(30, RING, degree=6, rng=7)
        before = topo.content_hash()
        topo.set_servers_per_switch(2)
        assert topo.num_servers == 60
        topo.validate()
        # The cached core must not outlive the re-provisioning.
        fresh = TopologyCore.from_graph(topo.graph, topo.ports, topo.servers)
        assert topo.content_hash() != before
        assert topo.content_hash() == fresh.content_hash
        assert topo.core().servers.tolist() == [2] * 30

    def test_set_servers_negative_rejected(self):
        topo = SmallWorldTopology.build(30, RING, degree=6, rng=8)
        with pytest.raises(TopologyError):
            topo.set_servers_per_switch(-1)
