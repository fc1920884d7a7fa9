"""Micro-benchmarks of the AIMD dynamics engine against the scalar reference.

``--benchmark-only`` runs these alongside the seed benchmarks; the
``record_sim.py`` script in this directory turns the same comparison into
the committed ``BENCH_sim.json`` trajectory snapshot.
"""

import pytest

from repro.routing.paths import build_path_set
from repro.simulation.aimd import AimdConfig, simulate_aimd
from repro.topologies.fattree import FatTreeTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic

from oracles.simulation import simulate_aimd_reference


@pytest.fixture(scope="module")
def fig11_scale_problem():
    """Equipment-matched Jellyfish, permutation traffic, MPTCP x 8 subflows."""
    fattree = FatTreeTopology.build(8)
    topology = JellyfishTopology.from_equipment(
        num_switches=fattree.num_switches,
        ports_per_switch=8,
        num_servers=int(round(fattree.num_servers * 1.25)),
        rng=1,
    )
    traffic = random_permutation_traffic(topology, rng=2)
    path_set = build_path_set(
        topology.csr(), list(traffic.switch_pairs()), scheme="ksp", k=8
    )
    config = AimdConfig(
        routing="ksp", k=8, congestion_control="mptcp", rounds=200, warmup_rounds=50
    )
    return topology, traffic, config, path_set


def test_bench_aimd_vectorized(benchmark, fig11_scale_problem):
    topology, traffic, config, path_set = fig11_scale_problem
    result = benchmark(
        simulate_aimd, topology, traffic, config, rng=5, path_set=path_set
    )
    assert result.flow_throughputs


def test_bench_aimd_reference(benchmark, fig11_scale_problem):
    topology, traffic, config, path_set = fig11_scale_problem
    result = benchmark.pedantic(
        simulate_aimd_reference,
        args=(topology, traffic, config),
        kwargs={"rng": 5, "path_set": path_set},
        iterations=1,
        rounds=2,
    )
    assert result.flow_throughputs
