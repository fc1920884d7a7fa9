"""Tests for ECMP routing."""

import networkx as nx
import pytest

from repro.graphs.csr import csr_graph
from repro.routing.ecmp import all_shortest_paths, ecmp_paths, ecmp_route_flows


class TestAllShortestPaths:
    def test_grid_has_multiple_shortest_paths(self):
        graph = nx.grid_2d_graph(3, 3)
        paths = all_shortest_paths(csr_graph(graph), (0, 0), (1, 1))
        assert len(paths) == 2
        assert all(len(p) == 3 for p in paths)

    def test_no_path(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        assert all_shortest_paths(csr_graph(graph), 0, 1) == []

    def test_deterministic_order(self):
        csr = csr_graph(nx.grid_2d_graph(3, 3))
        assert all_shortest_paths(csr, (0, 0), (2, 2)) == all_shortest_paths(
            csr, (0, 0), (2, 2)
        )


class TestEcmpPaths:
    def test_width_limits_path_count(self):
        graph = nx.grid_2d_graph(4, 4)
        wide = ecmp_paths(csr_graph(graph), (0, 0), (3, 3), width=64)
        narrow = ecmp_paths(csr_graph(graph), (0, 0), (3, 3), width=2)
        assert len(narrow) == 2
        assert len(wide) > len(narrow)

    def test_all_paths_are_shortest(self):
        graph = nx.grid_2d_graph(3, 4)
        paths = ecmp_paths(csr_graph(graph), (0, 0), (2, 3), width=8)
        shortest = nx.shortest_path_length(graph, (0, 0), (2, 3))
        assert all(len(p) - 1 == shortest for p in paths)

    def test_invalid_width(self):
        graph = nx.path_graph(3)
        with pytest.raises(ValueError):
            ecmp_paths(csr_graph(graph), 0, 2, width=0)


class TestEcmpRouteFlows:
    def test_each_flow_gets_a_path_from_its_pair(self):
        graph = nx.grid_2d_graph(3, 3)
        pair = ((0, 0), (2, 2))
        table = {pair: ecmp_paths(csr_graph(graph), *pair, width=8)}
        flows = [pair] * 20
        chosen = ecmp_route_flows(table, flows, rng=1)
        assert len(chosen) == 20
        assert all(path in table[pair] for path in chosen)

    def test_missing_pair_raises(self):
        with pytest.raises(ValueError):
            ecmp_route_flows({}, [(0, 1)], rng=1)

    def test_hashing_spreads_flows(self):
        graph = nx.grid_2d_graph(4, 4)
        pair = ((0, 0), (3, 3))
        table = {pair: ecmp_paths(csr_graph(graph), *pair, width=8)}
        chosen = ecmp_route_flows(table, [pair] * 200, rng=2)
        assert len(set(chosen)) > 1
