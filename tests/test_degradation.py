"""Degradation contract: every kernel survives partition.

Hypothesis draws damaged topologies -- a Jellyfish with a random fraction
of links and switches failed, often partitioned into several
components or stripped of servers -- and asserts the documented contract
of every layer: skip-mode routing tables that hold routes for exactly the
pairs one component labeling (``csr_component_labels``) calls reachable,
and flow / simulation engines that return finite values in [0, 1] (zero
for lost demand) instead of raising or emitting NaN.  Example tests pin
the labeling's numbering and ``degraded_throughput``'s arithmetic on a
partitioned instance.
"""

import math

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.failures.injection import fail_random_links, fail_random_switches
from repro.flow.throughput import (
    ThroughputResult,
    degraded_throughput,
    normalized_throughput,
)
from repro.graphs.csr import csr_graph
from repro.graphs.properties import csr_component_labels
from repro.routing.paths import build_path_set
from repro.simulation.aimd import AimdConfig, simulate_aimd
from repro.simulation.fluid import SimulationConfig, simulate_fluid
from repro.topologies.base import Topology
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import TrafficMatrix, random_permutation_traffic

# Each example builds a topology and may solve an LP: keep counts modest.
COMMON_SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def damaged_problem(draw):
    """A (plant, damaged topology, traffic, seed) tuple, often partitioned."""
    num_switches = draw(st.integers(min_value=10, max_value=20))
    degree = draw(st.integers(min_value=3, max_value=5))
    if (num_switches * degree) % 2 != 0:
        num_switches += 1
    ports = degree + draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    link_fraction = draw(st.floats(min_value=0.0, max_value=0.6))
    switch_fraction = draw(st.floats(min_value=0.0, max_value=0.4))

    plant = JellyfishTopology.build(num_switches, ports, degree, rng=seed)
    damaged = fail_random_switches(
        fail_random_links(plant, link_fraction, rng=seed + 1),
        switch_fraction,
        rng=seed + 2,
    )
    traffic = random_permutation_traffic(damaged, rng=seed + 3)
    return plant, damaged, traffic, seed


def component_labels(topology):
    """``{switch: component label}`` from ``csr_component_labels``."""
    csr = topology.csr()
    return dict(zip(csr.nodes, csr_component_labels(csr).tolist()))


class TestComponentLabels:
    def test_components_numbered_by_lowest_node(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(7))  # 2 and 6 stay isolated
        graph.add_edges_from([(3, 5), (1, 4), (0, 5)])
        labels = csr_component_labels(csr_graph(graph))
        assert labels.tolist() == [0, 1, 2, 0, 1, 0, 3]
        assert csr_component_labels(csr_graph(nx.Graph())).tolist() == []

    @COMMON_SETTINGS
    @given(damaged_problem())
    def test_labels_match_networkx_components(self, problem):
        _, damaged, _, _ = problem
        csr = damaged.csr()
        components = sorted(
            sorted(csr.index_of[node] for node in component)
            for component in nx.connected_components(damaged.graph)
        )
        expected = [0] * csr.num_nodes
        for label, members in enumerate(components):
            for index in members:
                expected[index] = label
        assert csr_component_labels(csr).tolist() == expected


class TestRoutingUnderPartition:
    @COMMON_SETTINGS
    @given(damaged_problem(), st.sampled_from(["ksp", "ecmp"]))
    def test_skip_mode_routes_exactly_the_reachable_pairs(self, problem, scheme):
        _, damaged, traffic, _ = problem
        pairs = [
            pair for pair in traffic.switch_pairs() if pair[0] != pair[1]
        ]
        path_set = build_path_set(
            damaged.graph, pairs, scheme=scheme, k=4, on_unreachable="skip"
        )
        path_set.validate_against(damaged.graph)
        labels = component_labels(damaged)
        for source, target in pairs:
            if labels[source] == labels[target]:
                assert path_set.paths[(source, target)]
            else:
                assert (source, target) not in path_set.paths


def two_rings(servers_per_switch):
    """Two disjoint 4-switch rings: a permutation sends some demands across
    the cut and keeps others inside a ring."""
    graph = nx.cycle_graph(4)
    graph.add_edges_from(nx.cycle_graph(range(4, 8)).edges)
    return Topology(
        graph,
        ports={node: 2 + servers_per_switch for node in graph},
        servers={node: servers_per_switch for node in graph},
    )


class TestFlowEnginesUnderPartition:
    @COMMON_SETTINGS
    @given(damaged_problem())
    def test_path_throughput_finite_and_degradation_scaled(self, problem):
        _, damaged, traffic, _ = problem
        outcome = degraded_throughput(damaged, traffic=traffic, k=4)
        assert math.isfinite(outcome.normalized)
        assert 0.0 <= outcome.normalized <= 1.0
        labels = component_labels(damaged)
        crossing = [
            labels[demand.source_switch] != labels[demand.destination_switch]
            for demand in traffic
        ]
        if crossing and all(crossing):
            assert outcome.normalized == 0.0
        if any(crossing):
            assert outcome.theta == 0.0

    def test_path_throughput_scales_the_reachable_demands(self):
        # Three servers per switch: the rings are oversubscribed.
        topology = two_rings(servers_per_switch=3)
        traffic = random_permutation_traffic(topology, rng=0)
        reachable = [
            demand
            for demand in traffic
            if nx.has_path(
                topology.graph, demand.source_switch, demand.destination_switch
            )
        ]
        assert 0 < len(reachable) < len(traffic)
        outcome = degraded_throughput(topology, traffic=traffic, k=4)
        within = normalized_throughput(topology, TrafficMatrix(reachable), k=4)
        assert 0.0 < within.normalized < 1.0
        assert isinstance(outcome, ThroughputResult)
        assert outcome.normalized == within.normalized * len(reachable) / len(traffic)
        assert outcome.theta == 0.0
        assert outcome.num_flows == len(traffic)

    def test_cut_off_demands_deny_full_capacity(self):
        # Two servers per switch: the reachable demands alone run at line
        # rate, yet half the matrix is cut off.
        topology = two_rings(servers_per_switch=2)
        traffic = random_permutation_traffic(topology, rng=0)
        outcome = degraded_throughput(topology, traffic=traffic, k=4)
        assert outcome.normalized == 0.5
        assert not outcome.supports_full_capacity()

    @COMMON_SETTINGS
    @given(
        damaged_problem(),
        st.sampled_from(["tcp1", "tcp8", "mptcp"]),
        st.sampled_from(["ksp", "ecmp"]),
    )
    def test_fluid_simulation_finite(self, problem, cc, routing):
        _, damaged, traffic, seed = problem
        config = SimulationConfig(routing=routing, k=4, congestion_control=cc)
        result = simulate_fluid(damaged, traffic, config, rng=seed)
        for value in result.flow_throughputs:
            assert math.isfinite(value)
            assert 0.0 <= value <= 1.0
        assert math.isfinite(result.average_throughput)
        assert 0.0 < result.fairness <= 1.0 or not result.flow_throughputs

    @COMMON_SETTINGS
    @given(damaged_problem())
    def test_aimd_simulation_finite(self, problem):
        _, damaged, traffic, seed = problem
        config = AimdConfig(
            routing="ecmp", k=4, congestion_control="tcp1",
            rounds=16, warmup_rounds=4,
        )
        result = simulate_aimd(damaged, traffic, config, rng=seed)
        for value in result.flow_throughputs:
            assert math.isfinite(value)
            assert 0.0 <= value <= 1.0 + 1e-9


class TestTotalLoss:
    def test_every_engine_survives_losing_every_switch(self):
        plant = JellyfishTopology.build(12, 5, 3, rng=0)
        dead = fail_random_switches(plant, 1.0, rng=1)
        assert dead.num_switches == 0
        traffic = random_permutation_traffic(dead, rng=2)
        assert not list(traffic)
        # No demand is left to serve; scoring the lost plant at 0.0 is
        # evaluate_epoch's rule (tests/test_lifecycle.py).
        outcome = degraded_throughput(dead, traffic=traffic, k=4)
        assert outcome.normalized == 1.0
        assert outcome.num_flows == 0
        result = simulate_fluid(dead, traffic, SimulationConfig(routing="ecmp", k=4))
        assert result.flow_throughputs == []
