"""Tests for the Topology abstraction (repro.topologies.base)."""

import networkx as nx
import pytest

from repro.topologies.base import Topology, TopologyError

from oracles.topologies import host_graph_reference


def triangle_topology():
    graph = nx.cycle_graph(3)
    ports = {0: 4, 1: 4, 2: 4}
    servers = {0: 2, 1: 1}
    return Topology(graph, ports, servers, name="triangle")


class TestConstructionAndValidation:
    def test_basic_counts(self):
        topo = triangle_topology()
        assert topo.num_switches == 3
        assert topo.num_links == 3
        assert topo.num_servers == 3
        assert topo.total_ports == 12

    def test_port_budget_violation_rejected(self):
        graph = nx.cycle_graph(3)
        with pytest.raises(TopologyError):
            Topology(graph, {0: 2, 1: 4, 2: 4}, {0: 1})

    def test_missing_port_count_rejected(self):
        graph = nx.cycle_graph(3)
        with pytest.raises(TopologyError):
            Topology(graph, {0: 4, 1: 4})

    def test_server_on_unknown_switch_rejected(self):
        graph = nx.cycle_graph(3)
        with pytest.raises(TopologyError):
            Topology(graph, {0: 4, 1: 4, 2: 4}, {99: 1})

    def test_negative_servers_rejected(self):
        graph = nx.cycle_graph(3)
        with pytest.raises(TopologyError):
            Topology(graph, {0: 4, 1: 4, 2: 4}, {0: -1})

    def test_port_count_for_unknown_switch_rejected(self):
        graph = nx.cycle_graph(3)
        with pytest.raises(TopologyError):
            Topology(graph, {0: 4, 1: 4, 2: 4, 9: 4})


class TestAccounting:
    def test_free_ports(self):
        topo = triangle_topology()
        assert topo.free_ports(0) == 4 - 2 - 2
        assert topo.free_ports(2) == 2

    def test_server_list_and_hosts(self):
        topo = triangle_topology()
        assert set(topo.server_hosts()) == {0, 1}
        assert len(topo.server_list()) == 3

    def test_host_graph_contains_servers_as_leaves(self):
        topo = triangle_topology()
        hosts, servers = host_graph_reference(topo)
        assert hosts.number_of_nodes() == 3 + 3
        for server in servers:
            assert hosts.degree(server) == 1


class TestDerivedMetrics:
    def test_switch_path_metrics(self):
        topo = triangle_topology()
        assert topo.switch_diameter() == 1
        assert topo.switch_average_path_length() == pytest.approx(1.0)

    def test_server_path_length_cdf_ends_at_one(self):
        cdf = triangle_topology().server_path_length_cdf()
        assert max(cdf.values()) == pytest.approx(1.0)

    def test_is_connected(self):
        assert triangle_topology().is_connected()


class TestMutation:
    def test_copy_is_independent(self):
        topo = triangle_topology()
        clone = topo.copy()
        clone.graph.remove_edge(0, 1)
        clone.servers[2] = 2
        assert topo.graph.has_edge(0, 1)
        assert topo.servers[2] == 0

    def test_remove_links(self):
        topo = triangle_topology()
        topo.remove_links([(0, 1), (5, 6)])  # missing links are ignored
        assert topo.num_links == 2

    def test_attach_servers_respects_budget(self):
        # Servers attached after an edit count against the port budget.
        topo = triangle_topology()
        topo.edit_graph()
        topo.servers[2] += 2
        topo.validate()
        assert topo.free_ports(2) == 0
        assert topo.core().servers.tolist() == [2, 1, 2]
        topo.edit_graph()
        topo.servers[2] += 3
        with pytest.raises(TopologyError):
            topo.validate()

    def test_attach_negative_rejected(self):
        # A graph-backed topology rejects what its core rejects.
        topo = triangle_topology()
        topo.edit_graph()
        topo.servers[0] = -1
        with pytest.raises(TopologyError, match="negative server count"):
            topo.validate()
        with pytest.raises(TopologyError, match="negative server count"):
            topo.core().validate()
