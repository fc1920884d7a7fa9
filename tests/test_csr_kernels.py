"""Parity suite for the CSR graph kernels (repro.graphs.csr).

Pins the array-native kernels against networkx and the retained pre-CSR
pure-Python implementations (:mod:`oracles.routing`):

* batched bitset BFS vs ``nx.single_source_shortest_path_length``
* CSR-native Yen vs the historical ``k_shortest_paths`` (path-for-path)
* shortest-path enumeration vs ``nx.all_shortest_paths``

on random Jellyfish/fat-tree-style graphs, including disconnected graphs
and degree-0 corners, plus direct tests of the CSRGraph cache lifecycle.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.csr import (
    CSRGraph,
    batched_hop_distances,
    bfs_source_chunk,
    clear_csr_cache,
    csr_graph,
)
from repro.graphs.regular import sequential_random_regular_graph
from repro.resources import ExecutionProfile, activate_profile
from repro.routing.ecmp import all_shortest_paths
from repro.routing.ksp import all_pairs_k_shortest_paths, k_shortest_paths
from repro.topologies.fattree import FatTreeTopology
from repro.topologies.jellyfish import JellyfishTopology

from oracles.routing import k_shortest_paths_reference

COMMON_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def jellyfish_like_graphs(draw):
    """Random regular (Jellyfish-style) graphs, sometimes damaged.

    Damage removes random edges, isolates some nodes and hangs pendant
    (degree-1) nodes off others, covering the disconnected, degree-0 and
    dead-end corners routing must survive.
    """
    num_nodes = draw(st.integers(min_value=4, max_value=30))
    degree = draw(st.integers(min_value=2, max_value=min(5, num_nodes - 1)))
    if (num_nodes * degree) % 2 != 0:
        degree -= 1
    degree = max(2, degree)
    seed = draw(st.integers(min_value=0, max_value=2**16))
    graph = sequential_random_regular_graph(num_nodes, degree, rng=seed)
    if draw(st.booleans()):
        edges = sorted(graph.edges)
        drop = draw(st.integers(min_value=0, max_value=max(0, len(edges) // 3)))
        for index in range(drop):
            edge = edges[(index * 7) % len(edges)]
            if graph.has_edge(*edge):
                graph.remove_edge(*edge)
    if draw(st.booleans()):
        isolated = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        graph.remove_edges_from(list(graph.edges(isolated)))
    pendants = draw(st.lists(st.integers(min_value=0, max_value=num_nodes - 1), max_size=3))
    for offset, anchor in enumerate(pendants):
        graph.add_edge(anchor, num_nodes + offset)
    return graph


class TestBatchedBfsParity:
    @COMMON_SETTINGS
    @given(jellyfish_like_graphs())
    def test_matches_networkx_single_source(self, graph):
        clear_csr_cache()
        csr = csr_graph(graph)
        matrix = batched_hop_distances(graph)
        for source in graph.nodes:
            expected = nx.single_source_shortest_path_length(graph, source)
            row = matrix[csr.index_of[source]]
            for column, node in enumerate(csr.nodes):
                assert row[column] == expected.get(node, -1)

    def test_subset_of_sources(self):
        topology = JellyfishTopology.build(20, 6, 4, rng=7)
        graph = topology.graph
        csr = csr_graph(graph)
        sources = sorted(graph.nodes)[:5]
        matrix = batched_hop_distances(graph, sources)
        assert matrix.shape == (5, graph.number_of_nodes())
        for row, source in enumerate(sources):
            expected = nx.single_source_shortest_path_length(graph, source)
            assert {
                csr.nodes[i]: int(v) for i, v in enumerate(matrix[row]) if v >= 0
            } == dict(expected)

    def test_fattree_tuple_nodes(self):
        graph = FatTreeTopology.build(4).graph
        csr = csr_graph(graph)
        matrix = batched_hop_distances(graph)
        source = csr.nodes[0]
        expected = nx.single_source_shortest_path_length(graph, source)
        row = matrix[0]
        assert {csr.nodes[i]: int(v) for i, v in enumerate(row) if v >= 0} == dict(
            expected
        )

    def test_more_than_64_sources_cross_word_boundary(self):
        graph = nx.cycle_graph(70)
        matrix = batched_hop_distances(graph)
        assert matrix.shape == (70, 70)
        assert int(matrix.max()) == 35
        assert (np.diagonal(matrix) == 0).all()

    def test_empty_and_edgeless_graphs(self):
        assert batched_hop_distances(nx.Graph()).shape == (0, 0)
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        matrix = batched_hop_distances(graph)
        assert (np.diagonal(matrix) == 0).all()
        assert (matrix.sum(axis=1) == -2).all()  # every off-diagonal is -1

    def test_missing_source_raises(self):
        graph = nx.path_graph(3)
        with pytest.raises(nx.NodeNotFound):
            batched_hop_distances(graph, [99])


class TestYenParity:
    """CSR Yen must match the pre-CSR implementation path-for-path."""

    @COMMON_SETTINGS
    @given(jellyfish_like_graphs(), st.integers(min_value=1, max_value=8))
    def test_matches_reference_exactly(self, graph, k):
        clear_csr_cache()
        nodes = sorted(graph.nodes)
        source, target = nodes[0], nodes[-1]
        ours = k_shortest_paths(graph, source, target, k)
        reference = k_shortest_paths_reference(graph, source, target, k)
        assert ours == reference

    @COMMON_SETTINGS
    @given(jellyfish_like_graphs(), st.integers(min_value=1, max_value=12), st.data())
    def test_all_pairs_shared_tree_matches_per_pair(self, graph, k, data):
        """Every entry of one lockstep batch equals per-pair reference Yen.

        Batches of 1-150 pairs over many sources, adjacent pairs included;
        the graphs may be disconnected, so some pairs are unreachable.
        """
        clear_csr_cache()
        nodes = sorted(graph.nodes)
        node = st.sampled_from(nodes)
        pair = st.one_of(st.tuples(node, node), st.sampled_from(sorted(graph.edges)))
        size = data.draw(st.integers(min_value=1, max_value=150))
        pairs = data.draw(st.lists(pair, min_size=size, max_size=size))
        table = all_pairs_k_shortest_paths(graph, pairs, k)
        assert set(table) == set(pairs)
        for pair in set(pairs):
            assert table[pair] == k_shortest_paths_reference(graph, *pair, k)

    @pytest.mark.parametrize("memory_scale", [1.0, 1e-12])
    def test_table_lanes_cross_words_and_chunks(self, memory_scale):
        """A round of more than 64 spur queries, in one chunk or in several."""
        graph = JellyfishTopology.build(30, 8, 5, rng=11).graph
        nodes = sorted(graph.nodes)
        pairs = [(source, target) for source in nodes[:4] for target in nodes if target != source]
        # Round one has a spur query per hop of every pair's first path.
        assert len(pairs) > 64
        clear_csr_cache()
        with activate_profile(ExecutionProfile(memory_scale=memory_scale)):
            csr = csr_graph(graph)
            chunk = bfs_source_chunk(csr.num_nodes, len(csr.indices))
            assert chunk == (64 if memory_scale < 1 else 4096)
            table = all_pairs_k_shortest_paths(graph, pairs, 8)
        for pair in pairs:
            assert table[pair] == k_shortest_paths_reference(graph, *pair, 8)

    def test_jellyfish_many_pairs(self):
        topology = JellyfishTopology.build(30, 8, 5, rng=11)
        graph = topology.graph
        nodes = sorted(graph.nodes)
        for i in range(0, 28, 3):
            pair = (nodes[i], nodes[i + 2])
            assert k_shortest_paths(graph, *pair, 8) == k_shortest_paths_reference(
                graph, *pair, 8
            )

    def test_fattree_pairs(self):
        graph = FatTreeTopology.build(4).graph
        nodes = sorted(graph.nodes)
        pair = (nodes[0], nodes[-1])
        assert k_shortest_paths(graph, *pair, 6) == k_shortest_paths_reference(
            graph, *pair, 6
        )


class TestAllShortestPathsParity:
    @COMMON_SETTINGS
    @given(jellyfish_like_graphs())
    def test_matches_networkx_set(self, graph):
        clear_csr_cache()
        nodes = sorted(graph.nodes)
        source, target = nodes[0], nodes[-1]
        ours = all_shortest_paths(graph, source, target)
        try:
            expected = sorted(tuple(p) for p in nx.all_shortest_paths(graph, source, target))
        except nx.NetworkXNoPath:
            expected = []
        assert ours == expected


class TestCsrGraphCache:
    def setup_method(self):
        clear_csr_cache()

    def test_same_object_is_reused(self):
        graph = nx.cycle_graph(10)
        assert csr_graph(graph) is csr_graph(graph)

    def test_mutation_rebuilds(self):
        graph = nx.cycle_graph(10)
        before = csr_graph(graph)
        graph.remove_edge(0, 1)
        after = csr_graph(graph)
        assert after is not before
        assert after.num_edges == before.num_edges - 1

    def test_count_preserving_rewire_rebuilds(self):
        graph = nx.cycle_graph(8)
        before = csr_graph(graph)
        graph.remove_edge(0, 1)
        graph.add_edge(0, 4)
        after = csr_graph(graph)
        assert after is not before
        assert after.content_hash != before.content_hash

    def test_content_hash_is_structural(self):
        first = csr_graph(nx.cycle_graph(12))
        second = CSRGraph(nx.cycle_graph(12))
        assert first.content_hash == second.content_hash

    def test_mutation_reroutes(self):
        graph = nx.cycle_graph(8)
        paths = k_shortest_paths(graph, 0, 4, 2)
        assert len(paths) == 2
        graph.remove_edge(0, 1)
        rerouted = k_shortest_paths(graph, 0, 4, 2)
        assert rerouted == k_shortest_paths_reference(graph, 0, 4, 2)
        assert rerouted != paths

    def test_repeated_queries_return_equal_fresh_lists(self):
        topology = JellyfishTopology.build(20, 6, 4, rng=3)
        graph = topology.graph
        nodes = sorted(graph.nodes)
        first = k_shortest_paths(graph, nodes[0], nodes[-1], 4)
        again = k_shortest_paths(graph, nodes[0], nodes[-1], 4)
        assert first == again
        assert first is not again  # callers get their own list
