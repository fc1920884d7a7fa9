"""Tests for degree-diameter benchmark graphs."""

import networkx as nx
import pytest

from repro.graphs.csr import csr_graph
from repro.graphs.properties import average_path_length, diameter
from repro.topologies.base import TopologyError
from repro.topologies.degree_diameter import (
    DegreeDiameterTopology,
    hoffman_singleton_graph,
    optimized_low_diameter_graph,
    petersen_graph,
)

from oracles.graphs import is_regular


class TestClassicalConstructions:
    def test_petersen(self):
        graph = petersen_graph()
        assert graph.number_of_nodes() == 10
        assert is_regular(graph, 3)
        assert diameter(csr_graph(graph)) == 2

    def test_hoffman_singleton(self):
        graph = hoffman_singleton_graph()
        assert graph.number_of_nodes() == 50
        assert is_regular(graph, 7)
        assert diameter(csr_graph(graph)) == 2


class TestLocalSearchOptimizer:
    def test_stays_regular_and_connected(self):
        graph = optimized_low_diameter_graph(24, 4, rng=1, iterations=200)
        assert is_regular(graph, 4)
        assert nx.is_connected(graph)

    def test_does_not_worsen_average_path_length(self):
        from repro.graphs.regular import random_regular_graph

        seed_graph = random_regular_graph(24, 4, rng=5)
        baseline = average_path_length(csr_graph(seed_graph))
        optimized = optimized_low_diameter_graph(24, 4, rng=5, iterations=300)
        assert average_path_length(csr_graph(optimized)) <= baseline + 1e-9

    def test_tiny_graph(self):
        graph = optimized_low_diameter_graph(4, 2, rng=2, iterations=10)
        assert graph.number_of_nodes() == 4


class TestDegreeDiameterTopology:
    def test_uses_exact_construction_when_available(self):
        topo = DegreeDiameterTopology.build(50, 11, 7, rng=1, iterations=10)
        assert topo.num_switches == 50
        assert is_regular(topo.graph, 7)
        assert diameter(topo.csr()) == 2
        assert topo.num_servers == 50 * 4

    def test_falls_back_to_local_search(self):
        topo = DegreeDiameterTopology.build(20, 6, 4, rng=2, iterations=50)
        assert topo.num_switches == 20
        assert topo.is_connected()

    def test_invalid_degree_rejected(self):
        with pytest.raises(TopologyError):
            DegreeDiameterTopology.build(20, 4, 5)

    def test_server_budget_enforced(self):
        with pytest.raises(TopologyError):
            DegreeDiameterTopology.build(20, 6, 4, servers_per_switch=3)
