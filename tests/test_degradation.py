"""Property-based degradation contract: every kernel survives partition.

Hypothesis draws damaged topologies -- a Jellyfish with a random fraction
of links and switches failed, often partitioned into several
components or stripped of servers -- and asserts the documented contract
of every layer: structured :class:`DegradationReport` invariants, skip-mode
routing tables that hold routes for exactly the reachable pairs, and flow /
simulation engines that return finite values in [0, 1] (zero for lost
demand) instead of raising or emitting NaN.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.failures.degradation import (
    component_labels_by_node,
    degradation_report,
    split_reachable_demands,
)
from repro.failures.injection import fail_random_links, fail_random_switches
from repro.flow.throughput import degraded_throughput
from repro.routing.paths import build_path_set
from repro.simulation.aimd import AimdConfig, simulate_aimd
from repro.simulation.fluid import SimulationConfig, simulate_fluid
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic

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


class TestDegradationReportInvariants:
    @COMMON_SETTINGS
    @given(damaged_problem())
    def test_report_is_consistent_and_serializable(self, problem):
        plant, damaged, traffic, _ = problem
        report = degradation_report(
            damaged, traffic=traffic, baseline_servers=plant.num_servers
        )
        assert sum(report.component_sizes) == report.num_switches
        assert sum(report.component_servers) == report.num_servers
        assert len(report.component_sizes) == len(report.component_servers)
        # Sorted by servers desc: index 0 is the principal component.
        assert list(report.component_servers) == sorted(
            report.component_servers, reverse=True
        )
        assert report.stranded_servers >= 0
        assert 0 <= report.unreachable_pairs <= report.demand_pairs
        assert 0.0 <= report.server_pair_connectivity <= 1.0
        assert math.isfinite(report.server_pair_connectivity)
        json.dumps(report.as_dict())  # must round-trip to JSON

    @COMMON_SETTINGS
    @given(damaged_problem())
    def test_split_matches_component_labels(self, problem):
        _, damaged, traffic, _ = problem
        reachable, unreachable = split_reachable_demands(damaged, traffic)
        assert len(reachable) + len(unreachable) == sum(1 for _ in traffic)
        labels = component_labels_by_node(damaged)
        for demand in reachable:
            src, dst = demand.source_switch, demand.destination_switch
            assert src == dst or labels[src] == labels[dst]
        for demand in unreachable:
            src, dst = demand.source_switch, demand.destination_switch
            assert labels[src] != labels[dst]


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
        labels = component_labels_by_node(damaged)
        for source, target in pairs:
            if labels[source] == labels[target]:
                assert path_set.paths[(source, target)]
            else:
                assert (source, target) not in path_set.paths


class TestFlowEnginesUnderPartition:
    @COMMON_SETTINGS
    @given(damaged_problem())
    def test_path_throughput_finite_and_degradation_scaled(self, problem):
        plant, damaged, traffic, _ = problem
        outcome = degraded_throughput(
            damaged, traffic=traffic, k=4,
            baseline_servers=plant.num_servers,
        )
        assert math.isfinite(outcome.normalized)
        assert 0.0 <= outcome.normalized <= 1.0
        assert outcome.report.num_components >= 1
        if (
            outcome.report.demand_pairs
            and outcome.report.unreachable_pairs == outcome.report.demand_pairs
        ):
            assert outcome.normalized == 0.0

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
        report = degradation_report(
            dead, traffic=traffic, baseline_servers=plant.num_servers
        )
        assert report.num_components == 0
        assert report.stranded_servers == plant.num_servers
        assert report.server_pair_connectivity == 0.0
        outcome = degraded_throughput(
            dead, traffic=traffic, k=4,
            baseline_servers=plant.num_servers,
        )
        assert outcome.normalized == 0.0
        result = simulate_fluid(dead, traffic, SimulationConfig(routing="ecmp", k=4))
        assert result.flow_throughputs == []
