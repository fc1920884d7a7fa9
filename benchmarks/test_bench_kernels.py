"""Micro-benchmarks of the CSR graph kernels against the retained references.

``--benchmark-only`` runs these alongside the seed benchmarks; the
``record_kernels.py`` script in this directory turns the same comparisons
into the committed ``BENCH_kernels.json`` trajectory snapshot.
"""

import pytest

from repro.graphs.csr import batched_hop_distances, clear_csr_cache, csr_graph
from repro.graphs.properties import average_path_length, diameter
from repro.memo import clear_memos
from repro.routing.ksp import k_shortest_paths
from repro.topologies.jellyfish import JellyfishTopology

from oracles.routing import (
    all_pairs_hop_distances_reference,
    k_shortest_paths_reference,
)


@pytest.fixture(scope="module")
def fig05_scale_graph():
    """A fig05-style Jellyfish at reduced size (paper degree, fewer switches)."""
    return JellyfishTopology.build(400, 48, 36, rng=0).graph


@pytest.fixture(scope="module")
def ksp_graph():
    return JellyfishTopology.build(100, 10, 6, rng=2).graph


def test_bench_batched_bfs_all_pairs(benchmark, fig05_scale_graph):
    clear_csr_cache()
    csr_graph(fig05_scale_graph)
    matrix = benchmark(batched_hop_distances, fig05_scale_graph)
    assert matrix.shape == (400, 400)


def test_bench_reference_bfs_all_pairs(benchmark, fig05_scale_graph):
    table = benchmark.pedantic(
        all_pairs_hop_distances_reference, args=(fig05_scale_graph,),
        iterations=1, rounds=2,
    )
    assert len(table) == 400


def test_bench_fig05_scale_metrics(benchmark, fig05_scale_graph):
    """Mean path length + diameter, the exact queries fig05 issues per size."""
    clear_csr_cache()

    def run():
        clear_csr_cache()
        clear_memos()
        return average_path_length(fig05_scale_graph), diameter(fig05_scale_graph)

    mean_hops, diam = benchmark(run)
    assert 1.0 < mean_hops < 3.0
    assert diam <= 4


def test_bench_csr_yen_cold(benchmark, ksp_graph):
    nodes = sorted(ksp_graph.nodes)
    clear_csr_cache()
    csr_graph(ksp_graph)
    paths = benchmark(k_shortest_paths, ksp_graph, nodes[0], nodes[-1], 8)
    assert len(paths) == 8


def test_bench_reference_yen(benchmark, ksp_graph):
    nodes = sorted(ksp_graph.nodes)
    paths = benchmark(k_shortest_paths_reference, ksp_graph, nodes[0], nodes[-1], 8)
    assert len(paths) == 8
