"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not figures from the paper; they quantify the sensitivity of the
reproduction to its own knobs:

* number of candidate paths k in k-shortest-path routing;
* ECMP width 8 vs 64 (the paper's footnote: 64-way barely helps);
* random-graph construction procedure (paper's sequential vs stub matching);
* localization fraction in the two-layer Jellyfish;
* servers-per-switch split at fixed equipment.
"""

import pytest

from repro.graphs.csr import csr_graph
from repro.graphs.properties import average_path_length
from repro.graphs.regular import graph_from_rows, regular_rows
from repro.simulation.fluid import MPTCP, SimulationConfig, simulate_fluid
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic


def _jellyfish():
    return JellyfishTopology.build(30, 8, 5, rng=1)


@pytest.mark.parametrize("k", [1, 4, 8, 16])
def test_bench_ablation_ksp_k(benchmark, k):
    """Throughput sensitivity to the number of shortest paths used."""
    topology = _jellyfish()
    traffic = random_permutation_traffic(topology, rng=2)
    config = SimulationConfig(routing="ksp", k=k, congestion_control=MPTCP)

    def run():
        return simulate_fluid(topology, traffic, config, rng=3).average_throughput

    value = benchmark.pedantic(run, iterations=1, rounds=1)
    assert 0.0 <= value <= 1.0
    print(f"\nksp k={k}: average throughput {value:.3f}")


@pytest.mark.parametrize("width", [8, 64])
def test_bench_ablation_ecmp_width(benchmark, width):
    """8-way vs 64-way ECMP: more ways barely help on a random graph."""
    topology = _jellyfish()
    traffic = random_permutation_traffic(topology, rng=4)
    config = SimulationConfig(routing="ecmp", k=width, congestion_control=MPTCP)

    def run():
        return simulate_fluid(topology, traffic, config, rng=5).average_throughput

    value = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\necmp width={width}: average throughput {value:.3f}")


@pytest.mark.parametrize("method", ["sequential", "stubs"])
def test_bench_ablation_construction_method(benchmark, method):
    """Both RRG constructions give the same path-length profile."""
    def run():
        graph = graph_from_rows(range(60), regular_rows(60, 6, 6, method))
        return average_path_length(csr_graph(graph))

    value = benchmark.pedantic(run, iterations=1, rounds=1)
    assert 1.5 < value < 3.5
    print(f"\n{method}: average path length {value:.3f}")


@pytest.mark.parametrize("servers_per_switch", [2, 3, 4])
def test_bench_ablation_server_split(benchmark, servers_per_switch):
    """Fixed equipment (8-port switches): servers vs network-degree trade-off."""
    def run():
        topology = JellyfishTopology.build(
            24, 8, 8 - servers_per_switch, rng=7,
            servers_per_switch=servers_per_switch,
        )
        traffic = random_permutation_traffic(topology, rng=8)
        config = SimulationConfig(routing="ksp", k=8, congestion_control=MPTCP)
        return simulate_fluid(topology, traffic, config, rng=9).average_throughput

    value = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\nservers/switch={servers_per_switch}: average throughput {value:.3f}")
