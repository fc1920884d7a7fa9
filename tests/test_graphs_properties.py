"""Tests for graph metrics (repro.graphs.properties)."""

import networkx as nx
import pytest

import repro.graphs.properties as properties
from repro.graphs.csr import clear_csr_cache
from repro.graphs.properties import (
    all_pairs_hop_distances,
    average_path_length,
    degree_histogram,
    diameter,
    is_connected,
    node_connectivity_at_least,
    path_length_cdf,
    path_length_distribution,
)
from repro.memo import clear_memos

from oracles.routing import bfs_distances


class TestBfsDistances:
    def test_path_graph(self):
        graph = nx.path_graph(4)
        assert bfs_distances(graph, 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_unreachable_nodes_absent(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        assert bfs_distances(graph, 0) == {0: 0}


class TestPathLengthDistribution:
    def test_triangle(self):
        histogram = path_length_distribution(nx.complete_graph(3))
        assert histogram == {1: 3}

    def test_path_graph_counts(self):
        histogram = path_length_distribution(nx.path_graph(4))
        assert histogram[1] == 3
        assert histogram[2] == 2
        assert histogram[3] == 1

    def test_restricted_node_subset(self):
        graph = nx.path_graph(5)
        histogram = path_length_distribution(graph, nodes=[0, 4])
        assert histogram == {4: 1}


class TestAveragePathLengthAndDiameter:
    def test_cycle(self):
        graph = nx.cycle_graph(6)
        assert diameter(graph) == 3
        assert average_path_length(graph) == pytest.approx((1 * 6 + 2 * 6 + 3 * 3) / 15)

    def test_complete_graph(self):
        graph = nx.complete_graph(5)
        assert diameter(graph) == 1
        assert average_path_length(graph) == pytest.approx(1.0)

    def test_disconnected_raises(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        with pytest.raises(ValueError):
            average_path_length(graph)

    def test_matches_networkx(self):
        graph = nx.random_regular_graph(3, 20, seed=1)
        assert average_path_length(graph) == pytest.approx(
            nx.average_shortest_path_length(graph)
        )
        assert diameter(graph) == nx.diameter(graph)


class TestPathLengthCdf:
    def test_monotone_and_ends_at_one(self):
        graph = nx.random_regular_graph(3, 16, seed=2)
        cdf = path_length_cdf(graph)
        values = [cdf[h] for h in sorted(cdf)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)


class TestAllPairsMemoization:
    """BFS sweeps run once per graph and are shared across metric queries.

    Sweeps are counted at the CSR kernel seam (``properties._bfs_matrix``);
    every requested source index counts as one BFS, matching the old
    per-source accounting.
    """

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        clear_csr_cache()
        clear_memos()
        yield
        clear_csr_cache()
        clear_memos()

    @pytest.fixture()
    def bfs_counter(self, monkeypatch):
        calls = []
        original = properties._bfs_matrix

        def counting(csr, source_indices):
            calls.extend(source_indices)
            return original(csr, source_indices)

        monkeypatch.setattr(properties, "_bfs_matrix", counting)
        return calls

    def test_distances_match_uncached_bfs(self):
        graph = nx.random_regular_graph(3, 20, seed=5)
        table = all_pairs_hop_distances(graph)
        for source in graph.nodes:
            assert table[source] == bfs_distances(graph, source)

    def test_metric_queries_share_one_sweep(self, bfs_counter):
        graph = nx.random_regular_graph(3, 20, seed=6)
        average_path_length(graph)
        assert len(bfs_counter) == 20
        diameter(graph)
        path_length_cdf(graph)
        assert len(bfs_counter) == 20  # no additional BFS for the later queries

    def test_subset_queries_reuse_sources(self, bfs_counter):
        graph = nx.path_graph(10)
        path_length_distribution(graph, nodes=[0, 4])
        assert len(bfs_counter) == 2
        path_length_distribution(graph, nodes=[0, 4, 9])
        assert len(bfs_counter) == 3  # only the new source runs BFS

    def test_mutation_invalidates_memo(self, bfs_counter):
        graph = nx.cycle_graph(8)
        before = diameter(graph)
        graph.remove_edge(0, 1)
        after = diameter(graph)
        assert after > before
        assert len(bfs_counter) == 16

    def test_swap_preserving_edge_count_invalidates(self, bfs_counter):
        graph = nx.cycle_graph(8)
        diameter(graph)
        graph.remove_edge(0, 1)
        graph.add_edge(0, 4)  # same node and edge counts, different structure
        mutated = diameter(graph)
        assert len(bfs_counter) == 16  # the stale entry was not reused
        assert mutated == diameter(graph.copy())

    def test_large_graphs_skip_the_memo(self, bfs_counter):
        graph = nx.cycle_graph(12)
        all_pairs_hop_distances(graph, memo_limit=10)
        all_pairs_hop_distances(graph, memo_limit=10)
        assert len(bfs_counter) == 24  # recomputed both times, nothing stored


class TestOtherMetrics:
    def test_is_connected_empty(self):
        assert is_connected(nx.Graph())

    def test_degree_histogram(self):
        graph = nx.star_graph(3)  # one hub of degree 3, three leaves of degree 1
        histogram = degree_histogram(graph)
        assert histogram == {3: 1, 1: 3}

    def test_node_connectivity(self):
        graph = nx.complete_graph(5)
        assert node_connectivity_at_least(graph, 4)
        assert not node_connectivity_at_least(graph, 5)
        assert node_connectivity_at_least(graph, 0)
