"""Micro-benchmarks of the topology layer against the retained references.

``--benchmark-only`` runs these alongside the seed benchmarks; the
``record_topology.py`` script in this directory turns the same comparisons
into the committed ``BENCH_topology.json`` trajectory snapshot.
"""

import random

import pytest

from repro.graphs.regular import (
    graph_from_rows,
    random_regular_graph,
    stub_matching_regular_rows,
)
from repro.topologies.jellyfish import JellyfishTopology, rrg_core
from repro.utils.rng import spawn_seeds

from oracles.graphs import (
    sequential_random_regular_graph_reference,
    stub_matching_regular_graph_reference,
)
from oracles.topologies import add_switch_reference

NUM_NODES = 300
DEGREE = 11


def test_bench_sequential_rrg_array_native(benchmark):
    graph = benchmark(random_regular_graph, NUM_NODES, DEGREE, random.Random(0))
    assert graph.number_of_edges() == NUM_NODES * DEGREE // 2


def test_bench_sequential_rrg_reference(benchmark):
    graph = benchmark.pedantic(
        sequential_random_regular_graph_reference,
        args=(NUM_NODES, DEGREE),
        kwargs={"rng": random.Random(0)},
        iterations=1,
        rounds=2,
    )
    assert graph.number_of_edges() == NUM_NODES * DEGREE // 2


def test_bench_stub_matching_vectorized(benchmark):
    rng = random.Random(0)
    graph = benchmark(
        lambda: graph_from_rows(
            range(NUM_NODES), stub_matching_regular_rows(NUM_NODES, DEGREE, rng)
        )
    )
    assert graph.number_of_edges() == NUM_NODES * DEGREE // 2


def test_bench_stub_matching_reference(benchmark):
    graph = benchmark.pedantic(
        stub_matching_regular_graph_reference,
        args=(NUM_NODES, DEGREE),
        kwargs={"rng": random.Random(0)},
        iterations=1,
        rounds=2,
    )
    assert graph.number_of_edges() == NUM_NODES * DEGREE // 2


@pytest.fixture(scope="module")
def expansion_base():
    return JellyfishTopology.build(NUM_NODES, DEGREE + 3, DEGREE, rng=1)


def test_bench_add_switch_incremental(benchmark, expansion_base):
    def run():
        topology = expansion_base.copy()
        topology.add_switch("new", DEGREE + 3, servers=1, rng=random.Random(2))
        return topology

    topology = benchmark(run)
    assert topology.num_switches == NUM_NODES + 1


def test_bench_add_switch_reference(benchmark, expansion_base):
    def run():
        topology = expansion_base.copy()
        add_switch_reference(
            topology, "new", DEGREE + 3, servers=1, rng=random.Random(2)
        )
        return topology

    topology = benchmark.pedantic(run, iterations=1, rounds=3)
    assert topology.num_switches == NUM_NODES + 1


def test_bench_ensemble_build_stubs(benchmark):
    instance_seeds = spawn_seeds(0, 20)

    def build():
        return [
            rrg_core(120, 14, 11, instance_seed, method="stubs")
            for instance_seed in instance_seeds
        ]

    cores = benchmark(build)
    assert len(cores) == 20
