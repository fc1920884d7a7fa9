"""Micro-benchmarks of the core primitives (construction, KSP, LP, simulator).

These time the building blocks that every experiment leans on, so
performance regressions are visible independently of the figure harnesses.
"""

from repro.flow.path_lp import max_concurrent_flow_path_lp
from repro.graphs.regular import random_regular_graph
from repro.routing.ksp import k_shortest_paths
from repro.simulation.fluid import MPTCP, SimulationConfig, simulate_fluid
from repro.topologies.fattree import FatTreeTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic


def test_bench_rrg_construction(benchmark):
    graph = benchmark(random_regular_graph, 200, 12, 1)
    assert graph.number_of_edges() == 200 * 12 // 2


def test_bench_fattree_construction(benchmark):
    topology = benchmark(FatTreeTopology.build, 10)
    assert topology.num_servers == 250


def test_bench_yen_k_shortest_paths(benchmark):
    topology = JellyfishTopology.build(100, 10, 6, rng=2)
    csr = topology.csr()
    nodes = csr.nodes

    def run():
        return k_shortest_paths(csr, nodes[0], nodes[-1], 8)

    paths = benchmark(run)
    assert len(paths) == 8


def test_bench_path_lp_throughput(benchmark):
    topology = JellyfishTopology.build(30, 8, 5, rng=3)
    traffic = random_permutation_traffic(topology, rng=3)

    def run():
        return max_concurrent_flow_path_lp(topology, traffic, k=8)

    theta = benchmark.pedantic(run, iterations=1, rounds=3)
    assert theta > 0


def test_bench_fluid_simulation(benchmark):
    topology = JellyfishTopology.build(30, 8, 5, rng=4)
    traffic = random_permutation_traffic(topology, rng=4)
    config = SimulationConfig(routing="ksp", k=8, congestion_control=MPTCP)

    def run():
        return simulate_fluid(topology, traffic, config, rng=5).average_throughput

    value = benchmark.pedantic(run, iterations=1, rounds=3)
    assert 0.0 <= value <= 1.0
