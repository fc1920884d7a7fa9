"""Tests for Yen's k-shortest-paths implementation."""

from itertools import islice

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.csr import csr_graph
from repro.graphs.regular import random_regular_graph
from repro.routing.ksp import all_pairs_k_shortest_paths, k_shortest_paths


class TestKShortestPaths:
    def test_single_shortest_path(self):
        graph = nx.path_graph(5)
        paths = k_shortest_paths(csr_graph(graph), 0, 4, 3)
        assert paths == [(0, 1, 2, 3, 4)]

    def test_cycle_has_two_paths(self):
        graph = nx.cycle_graph(6)
        paths = k_shortest_paths(csr_graph(graph), 0, 3, 5)
        assert len(paths) == 2
        assert len(paths[0]) <= len(paths[1])

    def test_paths_are_loopless_and_valid(self):
        graph = nx.random_regular_graph(4, 20, seed=1)
        paths = k_shortest_paths(csr_graph(graph), 0, 10, 8)
        for path in paths:
            assert path[0] == 0 and path[-1] == 10
            assert len(set(path)) == len(path)
            for u, v in zip(path, path[1:]):
                assert graph.has_edge(u, v)

    def test_non_decreasing_lengths(self):
        graph = nx.random_regular_graph(4, 20, seed=2)
        paths = k_shortest_paths(csr_graph(graph), 1, 15, 8)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_distinct_paths(self):
        graph = nx.random_regular_graph(5, 24, seed=3)
        paths = k_shortest_paths(csr_graph(graph), 0, 12, 8)
        assert len(set(paths)) == len(paths)

    def test_matches_networkx_shortest_simple_paths(self):
        graph = nx.random_regular_graph(3, 14, seed=4)
        ours = k_shortest_paths(csr_graph(graph), 0, 7, 5)
        reference = []
        for path in nx.shortest_simple_paths(graph, 0, 7):
            reference.append(tuple(path))
            if len(reference) == 5:
                break
        assert [len(p) for p in ours] == [len(p) for p in reference]

    def test_source_equals_target(self):
        graph = nx.path_graph(3)
        assert k_shortest_paths(csr_graph(graph), 1, 1, 4) == [(1,)]

    def test_disconnected_returns_empty(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        assert k_shortest_paths(csr_graph(graph), 0, 1, 3) == []

    def test_missing_node_raises(self):
        graph = nx.path_graph(3)
        with pytest.raises(nx.NodeNotFound):
            k_shortest_paths(csr_graph(graph), 0, 99, 2)

    def test_invalid_k(self):
        graph = nx.path_graph(3)
        with pytest.raises(ValueError):
            k_shortest_paths(csr_graph(graph), 0, 2, 0)


@st.composite
def ksp_cases(draw):
    """A random regular graph plus a (source, target, k) query."""
    num_nodes = draw(st.integers(min_value=6, max_value=24))
    degree = draw(st.integers(min_value=2, max_value=min(5, num_nodes - 1)))
    if (num_nodes * degree) % 2 != 0:
        degree -= 1
    seed = draw(st.integers(min_value=0, max_value=2**16))
    k = draw(st.integers(min_value=1, max_value=8))
    return num_nodes, max(2, degree), seed, k


class TestPropertyAgainstNetworkX:
    """Yen's KSP must agree with networkx.shortest_simple_paths on random
    regular graphs: loopless paths, non-decreasing lengths, k respected."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ksp_cases())
    def test_matches_reference_on_random_regular_graphs(self, case):
        num_nodes, degree, seed, k = case
        graph = random_regular_graph(num_nodes, degree, rng=seed)
        nodes = sorted(graph.nodes)
        source, target = nodes[0], nodes[-1]
        if not nx.has_path(graph, source, target):
            return

        ours = k_shortest_paths(csr_graph(graph), source, target, k)
        reference = list(islice(nx.shortest_simple_paths(graph, source, target), k))

        # k respected: never more than k paths, and exactly as many as the
        # reference enumeration finds within the first k simple paths.
        assert len(ours) <= k
        assert len(ours) == len(reference)
        # Same length profile (tie-breaking within a length may differ).
        assert [len(p) for p in ours] == [len(p) for p in reference]
        # Non-decreasing lengths.
        lengths = [len(p) for p in ours]
        assert lengths == sorted(lengths)
        # Loopless, valid, distinct paths with the right endpoints.
        assert len(set(ours)) == len(ours)
        for path in ours:
            assert path[0] == source and path[-1] == target
            assert len(set(path)) == len(path)
            assert all(graph.has_edge(u, v) for u, v in zip(path, path[1:]))

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ksp_cases())
    def test_exhaustive_when_k_exceeds_path_count(self, case):
        """With a huge k, the paths found must be every simple path, i.e.
        exactly what the reference enumeration yields."""
        num_nodes, degree, seed, _ = case
        graph = random_regular_graph(min(num_nodes, 10), 2, rng=seed)
        nodes = sorted(graph.nodes)
        source, target = nodes[0], nodes[-1]
        if not nx.has_path(graph, source, target):
            return
        ours = k_shortest_paths(csr_graph(graph), source, target, 1000)
        reference = list(nx.shortest_simple_paths(graph, source, target))
        assert sorted(ours) == sorted(tuple(p) for p in reference)


class TestAllPairs:
    def test_keys_and_counts(self):
        graph = nx.cycle_graph(8)
        pairs = [(0, 4), (1, 5)]
        table = all_pairs_k_shortest_paths(csr_graph(graph), pairs, 2)
        assert set(table) == set(pairs)
        assert all(len(paths) == 2 for paths in table.values())
