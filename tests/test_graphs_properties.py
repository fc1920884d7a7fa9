"""Tests for graph metrics (repro.graphs.properties)."""

import itertools
from collections import Counter

import networkx as nx
import numpy as np
import pytest

import repro.graphs.properties as properties
from repro.graphs.csr import csr_graph
from repro.graphs.properties import (
    average_path_length,
    csr_is_connected,
    diameter,
    histogram_cdf,
    path_length_distribution,
    server_path_length_cdf,
)
from repro.memo import clear_memos
from repro.topologies.base import Topology

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
        histogram = path_length_distribution(csr_graph(nx.complete_graph(3)))
        assert histogram == {1: 3}

    def test_path_graph_counts(self):
        histogram = path_length_distribution(csr_graph(nx.path_graph(4)))
        assert histogram[1] == 3
        assert histogram[2] == 2
        assert histogram[3] == 1

    def test_restricted_node_subset(self):
        # The switch pairs of a server CDF are the hosting switches' pairs only.
        csr = csr_graph(nx.path_graph(5))
        assert server_path_length_cdf(csr, [1, 0, 0, 0, 1]) == {6: 1.0}


class TestAveragePathLengthAndDiameter:
    def test_cycle(self):
        csr = csr_graph(nx.cycle_graph(6))
        assert diameter(csr) == 3
        assert average_path_length(csr) == pytest.approx((1 * 6 + 2 * 6 + 3 * 3) / 15)

    def test_complete_graph(self):
        csr = csr_graph(nx.complete_graph(5))
        assert diameter(csr) == 1
        assert average_path_length(csr) == pytest.approx(1.0)

    def test_disconnected_raises(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        with pytest.raises(ValueError):
            average_path_length(csr_graph(graph))

    def test_matches_networkx(self):
        graph = nx.random_regular_graph(3, 20, seed=1)
        assert average_path_length(csr_graph(graph)) == pytest.approx(
            nx.average_shortest_path_length(graph)
        )
        assert diameter(csr_graph(graph)) == nx.diameter(graph)


class TestPathLengthCdf:
    def test_monotone_and_ends_at_one(self):
        graph = nx.random_regular_graph(3, 16, seed=2)
        cdf = histogram_cdf(path_length_distribution(csr_graph(graph)))
        values = [cdf[h] for h in sorted(cdf)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)


def _ring(size: int) -> Topology:
    """A ring of ``size`` 4-port switches, one server each."""
    graph = nx.cycle_graph(size)
    return Topology(graph, {node: 4 for node in graph}, {node: 1 for node in graph})


class TestAllPairsMemoization:
    """BFS sweeps run once per graph and are shared across metric queries.

    Sweeps are counted at the CSR kernel seam (``properties._bfs_matrix``);
    every requested source index counts as one BFS, matching the old
    per-source accounting.
    """

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        clear_memos()
        yield
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
        csr = csr_graph(graph)
        rows = properties._rows_for_indices(csr, list(range(csr.num_nodes)))
        for source, row in zip(csr.nodes, rows):
            reachable = {csr.nodes[t]: int(d) for t, d in enumerate(row) if d >= 0}
            assert reachable == bfs_distances(graph, source)

    def test_metric_queries_share_one_sweep(self, bfs_counter):
        csr = csr_graph(nx.random_regular_graph(3, 20, seed=6))
        average_path_length(csr)
        assert len(bfs_counter) == 20
        diameter(csr)
        path_length_distribution(csr)
        assert len(bfs_counter) == 20  # no additional BFS for the later queries

    def test_subset_queries_reuse_sources(self, bfs_counter):
        csr = csr_graph(nx.path_graph(10))
        hosts = np.zeros(10, dtype=int)
        hosts[[0, 4]] = 1
        server_path_length_cdf(csr, hosts)
        assert len(bfs_counter) == 2
        hosts[9] = 1
        server_path_length_cdf(csr, hosts)
        assert len(bfs_counter) == 3  # only the new source runs BFS

    def test_mutation_invalidates_memo(self, bfs_counter):
        topology = _ring(8)
        before = topology.switch_diameter()
        topology.remove_links([(0, 1)])
        after = topology.switch_diameter()
        assert after > before
        assert len(bfs_counter) == 16

    def test_swap_preserving_edge_count_invalidates(self, bfs_counter):
        topology = _ring(8)
        topology.switch_diameter()
        graph = topology.edit_graph()
        graph.remove_edge(0, 1)
        graph.add_edge(0, 4)  # same node and edge counts, different structure
        mutated = topology.switch_diameter()
        assert len(bfs_counter) == 16  # the stale entry was not reused
        assert mutated == diameter(csr_graph(graph.copy()))

    def test_large_graphs_skip_the_memo(self, bfs_counter, monkeypatch):
        monkeypatch.setattr(properties, "DIST_ROW_MEMO_NODE_LIMIT", 10)
        csr = csr_graph(nx.cycle_graph(12))
        path_length_distribution(csr)
        path_length_distribution(csr)
        assert len(bfs_counter) == 24  # recomputed both times, nothing stored


class TestOtherMetrics:
    def test_is_connected_empty(self):
        assert csr_is_connected(csr_graph(nx.Graph()))

    def test_degree_histogram(self):
        graph = nx.star_graph(3)  # one hub of degree 3, three leaves of degree 1
        degrees = np.diff(csr_graph(graph).indptr)  # CSR row lengths are degrees
        assert Counter(degrees.tolist()) == {3: 1, 1: 3}

    def test_node_connectivity(self):
        # K5 has node connectivity 4: it survives the loss of any 3 nodes.
        graph = nx.complete_graph(5)
        for lost in itertools.combinations(graph, 3):
            survivors = graph.copy()
            survivors.remove_nodes_from(lost)
            assert csr_is_connected(csr_graph(survivors))
        # A path has node connectivity 1: losing its middle node splits it.
        path = nx.path_graph(3)
        path.remove_node(1)
        assert not csr_is_connected(csr_graph(path))
