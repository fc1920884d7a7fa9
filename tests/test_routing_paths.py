"""Tests for the PathSet container and builder."""

import networkx as nx
import pytest

from repro.graphs.csr import csr_graph
from repro.routing.paths import PathSet, build_path_set

from oracles.routing import assert_valid_path_set


@pytest.fixture()
def grid():
    return nx.grid_2d_graph(4, 4)


class TestBuildPathSet:
    def test_ksp_counts(self, grid):
        pairs = [((0, 0), (3, 3)), ((0, 3), (3, 0))]
        path_set = build_path_set(csr_graph(grid), pairs, scheme="ksp", k=4)
        assert len(path_set) == 2
        assert all(len(path_set[p]) == 4 for p in pairs)
        assert path_set.kind == "ksp-4"

    def test_ecmp_paths_are_shortest(self, grid):
        pairs = [((0, 0), (2, 2))]
        path_set = build_path_set(csr_graph(grid), pairs, scheme="ecmp", k=8)
        shortest = nx.shortest_path_length(grid, (0, 0), (2, 2))
        assert all(len(p) - 1 == shortest for p in path_set[pairs[0]])

    def test_same_node_pairs_skipped(self, grid):
        path_set = build_path_set(csr_graph(grid), [((0, 0), (0, 0))], scheme="ksp", k=2)
        assert len(path_set) == 0

    def test_unknown_scheme(self, grid):
        with pytest.raises(ValueError):
            build_path_set(csr_graph(grid), [((0, 0), (1, 1))], scheme="magic")

    def test_disconnected_pair_raises(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        with pytest.raises(ValueError):
            build_path_set(csr_graph(graph), [(0, 1)], scheme="ksp", k=2)

    def test_validate_against(self, grid):
        pairs = [((0, 0), (3, 3))]
        path_set = build_path_set(csr_graph(grid), pairs, scheme="ksp", k=4)
        assert_valid_path_set(path_set, grid)

    def test_validate_detects_broken_path(self, grid):
        path_set = PathSet()
        path_set.add(((0, 0), (3, 3)), ((0, 0), (3, 3)))  # not an edge
        with pytest.raises(AssertionError):
            assert_valid_path_set(path_set, grid)

    def test_validate_detects_loop(self, grid):
        path_set = PathSet()
        path_set.add(((0, 0), (0, 1)), ((0, 0), (1, 0), (0, 0), (0, 1)))
        with pytest.raises(AssertionError):
            assert_valid_path_set(path_set, grid)


class TestPathSetStatistics:
    def test_max_paths_per_pair(self, grid):
        path_set = build_path_set(csr_graph(grid), [((0, 0), (3, 3))], scheme="ksp", k=5)
        assert max(len(options) for options in path_set.paths.values()) == 5
        assert PathSet().paths == {}
