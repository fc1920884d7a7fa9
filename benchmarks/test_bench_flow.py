"""Micro-benchmarks of the flow engine against the retained references.

``--benchmark-only`` runs these alongside the seed benchmarks; the
``record_flow.py`` script in this directory turns the same comparisons
into the committed ``BENCH_flow.json`` trajectory snapshot.
"""

import pytest

from repro.flow.maxmin import max_min_fair_allocation
from repro.flow.path_lp import PathLPStructure
from repro.routing.paths import build_path_set
from repro.simulation.capacity import link_capacities
from repro.simulation.fluid import (
    TCP_EIGHT_FLOWS,
    SimulationConfig,
    _build_flow_specs,
)
from repro.topologies.fattree import FatTreeTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic
from repro.utils.rng import ensure_rng

from oracles.flow import (
    assemble_path_lp_reference,
    max_min_fair_allocation_reference,
)


@pytest.fixture(scope="module")
def fig13_scale_problem():
    """Equipment-matched Jellyfish, permutation traffic, 8 striped subflows."""
    fattree = FatTreeTopology.build(8)
    topology = JellyfishTopology.from_equipment(
        num_switches=fattree.num_switches,
        ports_per_switch=8,
        num_servers=int(round(fattree.num_servers * 1.13)),
        rng=1,
    )
    traffic = random_permutation_traffic(topology, rng=2)
    demands = traffic.switch_pairs()
    path_set = build_path_set(topology.csr(), list(demands), scheme="ksp", k=8)
    config = SimulationConfig(routing="ksp", k=8, congestion_control=TCP_EIGHT_FLOWS)
    specs = _build_flow_specs(traffic, path_set, config, ensure_rng(3))
    capacities = link_capacities(topology)
    arrays = traffic.as_switch_array(topology.csr().index_of)
    return topology, demands, path_set, specs, capacities, arrays


def test_bench_maxmin_vectorized(benchmark, fig13_scale_problem):
    _, _, _, specs, capacities, _ = fig13_scale_problem
    allocation = benchmark(max_min_fair_allocation, specs, capacities)
    assert allocation.flow_rates


def test_bench_maxmin_reference(benchmark, fig13_scale_problem):
    _, _, _, specs, capacities, _ = fig13_scale_problem
    allocation = benchmark.pedantic(
        max_min_fair_allocation_reference, args=(specs, capacities),
        iterations=1, rounds=2,
    )
    assert allocation.flow_rates


def test_bench_path_lp_assembly_vectorized(benchmark, fig13_scale_problem):
    _, _, path_set, _, capacities, arrays = fig13_scale_problem
    structure = PathLPStructure(capacities)
    matrices = benchmark(structure.assemble, arrays, path_set)
    assert matrices[-1] > 0


def test_bench_path_lp_assembly_reference(benchmark, fig13_scale_problem):
    topology, demands, path_set, _, _, _ = fig13_scale_problem
    matrices = benchmark.pedantic(
        assemble_path_lp_reference, args=(topology, demands, path_set),
        iterations=1, rounds=3,
    )
    assert matrices[-1] > 0
