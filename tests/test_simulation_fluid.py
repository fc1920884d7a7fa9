"""Tests for the fluid (flow-level) routing + congestion-control simulator."""

import random

import pytest

from repro.flow.maxmin import FlowSpec
from repro.flow.throughput import normalized_throughput
from repro.routing.paths import PathSet, build_path_set
from repro.simulation.aimd import AimdConfig
from repro.simulation.fluid import (
    MPTCP,
    TCP_EIGHT_FLOWS,
    TCP_ONE_FLOW,
    SimulationConfig,
    _allocate_mptcp_sequential,
    _build_flow_specs,
    plan_subflows,
    simulate_fluid,
)
from repro.traffic.matrices import Demand, TrafficMatrix, random_permutation_traffic

from oracles.simulation import _build_subflows_reference


class TestConfigValidation:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.routing == "ksp"
        assert config.congestion_control == MPTCP

    def test_invalid_routing(self):
        with pytest.raises(ValueError):
            SimulationConfig(routing="pigeon")

    def test_invalid_congestion_control(self):
        with pytest.raises(ValueError):
            SimulationConfig(congestion_control="udp")

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SimulationConfig(k=0)


class TestBasicBehaviour:
    def test_throughputs_in_unit_interval(self, equipment_jellyfish):
        result = simulate_fluid(equipment_jellyfish, rng=1)
        assert result.flow_throughputs
        assert all(0.0 <= value <= 1.0 for value in result.flow_throughputs)

    def test_one_throughput_per_flow(self, equipment_jellyfish):
        traffic = random_permutation_traffic(equipment_jellyfish, rng=2)
        result = simulate_fluid(equipment_jellyfish, traffic, rng=2)
        assert len(result.flow_throughputs) == len(traffic)

    def test_empty_traffic(self, equipment_jellyfish):
        topo = equipment_jellyfish.copy()
        for node in topo.graph.nodes:
            topo.servers[node] = 0
        result = simulate_fluid(topo, rng=3)
        assert result.average_throughput == 1.0
        assert result.fairness == 1.0

    def test_fairness_in_unit_interval(self, medium_fattree):
        result = simulate_fluid(
            medium_fattree,
            config=SimulationConfig(routing="ecmp", congestion_control=MPTCP),
            rng=4,
        )
        assert 0.0 < result.fairness <= 1.0


@pytest.fixture()
def plan_problem(small_jellyfish):
    """Permutation traffic plus one same-rack demand, over a 4-path KSP table
    with one cross-rack pair removed (as skip mode leaves an unreachable one)."""
    demands = list(random_permutation_traffic(small_jellyfish, rng=1))
    switch = demands[0].source_switch
    demands.insert(3, Demand(source=(switch, 0), destination=(switch, 1), rate=1.0))
    traffic = TrafficMatrix(demands)
    table = build_path_set(
        small_jellyfish.graph, list(traffic.switch_pairs()), scheme="ksp", k=4
    )
    paths = dict(table.paths)
    del paths[(demands[5].source_switch, demands[5].destination_switch)]
    return traffic, PathSet(paths=paths, kind=table.kind)


class TestSubflowPlan:
    def test_covers_same_rack_and_unreachable_demands(self, plan_problem):
        traffic, path_set = plan_problem
        plan = list(
            plan_subflows(traffic, path_set, SimulationConfig(), random.Random(0))
        )
        assert [index for index, *_ in plan] == list(range(len(traffic)))
        assert [demand for _, demand, *_ in plan] == list(traffic)
        assert plan[3][2:] == (None, [])
        assert plan[5][2:] == ([], [])

    def test_tcp1_draws_once_per_routed_cross_rack_demand(self, plan_problem):
        traffic, path_set = plan_problem
        config = SimulationConfig(k=4, congestion_control=TCP_ONE_FLOW)
        rand, replay = random.Random(5), random.Random(5)
        routed = 0
        for _, _, options, picks in plan_subflows(traffic, path_set, config, rand):
            if options:
                routed += 1
                assert picks == [replay.randrange(len(options))]
            else:
                assert picks == []
        assert routed == len(traffic) - 2
        assert rand.getstate() == replay.getstate()

    @pytest.mark.parametrize("congestion_control", [TCP_EIGHT_FLOWS, MPTCP])
    def test_stripes_round_robin_without_draws(self, plan_problem, congestion_control):
        traffic, path_set = plan_problem
        config = SimulationConfig(k=4, congestion_control=congestion_control, subflows=5)
        rand = random.Random(5)
        before = rand.getstate()
        for _, _, options, picks in plan_subflows(traffic, path_set, config, rand):
            if options:
                assert picks == [i % len(options) for i in range(5)]
            else:
                assert picks == []
        assert rand.getstate() == before

    @pytest.mark.parametrize(
        "congestion_control", [TCP_ONE_FLOW, TCP_EIGHT_FLOWS, MPTCP]
    )
    def test_fluid_and_aimd_route_every_demand_alike(
        self, plan_problem, congestion_control
    ):
        traffic, path_set = plan_problem
        specs = _build_flow_specs(
            traffic,
            path_set,
            SimulationConfig(k=4, congestion_control=congestion_control, subflows=5),
            random.Random(9),
        )
        subflows, _, unreachable = _build_subflows_reference(
            traffic,
            path_set,
            AimdConfig(k=4, congestion_control=congestion_control, subflows=5),
            random.Random(9),
        )
        aimd_paths = {}
        for subflow in subflows:
            aimd_paths.setdefault(subflow.connection, []).append(subflow.path)
        assert unreachable == {5}
        for index, (demand, spec) in enumerate(zip(traffic, specs)):
            if demand.source_switch == demand.destination_switch:
                assert spec.paths == [(demand.source_switch,)]
                assert index not in aimd_paths
            else:
                assert spec.paths == aimd_paths.get(index, [])
        assert specs[5].paths == []


class TestMptcpLinkLoads:
    def test_mptcp_result_reports_link_loads(self, equipment_jellyfish):
        """The MPTCP branch must accumulate per-link loads across rounds."""
        traffic = random_permutation_traffic(equipment_jellyfish, rng=12)
        result = simulate_fluid(
            equipment_jellyfish, traffic,
            SimulationConfig(routing="ksp", congestion_control=MPTCP), rng=12,
        )
        assert result.link_loads
        for (u, v), load in result.link_loads.items():
            capacity = float(
                equipment_jellyfish.graph[u][v].get("capacity", 1.0)
            )
            assert 0.0 <= load <= capacity + 1e-6

    def test_mptcp_link_loads_cover_throughput(self, equipment_jellyfish):
        traffic = random_permutation_traffic(equipment_jellyfish, rng=13)
        result = simulate_fluid(
            equipment_jellyfish, traffic,
            SimulationConfig(routing="ksp", congestion_control=MPTCP), rng=13,
        )
        # Every unit of cross-network throughput traverses at least one link.
        crossing = sum(1 for d in traffic if d.source_switch != d.destination_switch)
        if crossing:
            assert sum(result.link_loads.values()) > 0.0

    def test_sequential_allocator_honors_default_capacity(self):
        specs = [FlowSpec("f", [("a", "b")], demand=5.0)]
        # No capacity entry for (a, b): the default applies per tier and to
        # the depletion bookkeeping, not a hardcoded 1.0.
        rates, loads = _allocate_mptcp_sequential(specs, {}, default_capacity=2.0)
        assert rates["f"] == pytest.approx(2.0)
        assert loads[("a", "b")] == pytest.approx(2.0)


class TestPaperOrderings:
    """Qualitative relationships from Table 1 must hold."""

    def test_fattree_ecmp_multiflow_beats_single_flow(self, medium_fattree):
        traffic = random_permutation_traffic(medium_fattree, rng=5)
        single = simulate_fluid(
            medium_fattree, traffic,
            SimulationConfig(routing="ecmp", congestion_control=TCP_ONE_FLOW), rng=5,
        )
        multi = simulate_fluid(
            medium_fattree, traffic,
            SimulationConfig(routing="ecmp", congestion_control=TCP_EIGHT_FLOWS), rng=5,
        )
        assert multi.average_throughput > single.average_throughput

    def test_jellyfish_ksp_mptcp_beats_ecmp_mptcp(self, equipment_jellyfish):
        traffic = random_permutation_traffic(equipment_jellyfish, rng=6)
        ecmp = simulate_fluid(
            equipment_jellyfish, traffic,
            SimulationConfig(routing="ecmp", congestion_control=MPTCP), rng=6,
        )
        ksp = simulate_fluid(
            equipment_jellyfish, traffic,
            SimulationConfig(routing="ksp", congestion_control=MPTCP), rng=6,
        )
        assert ksp.average_throughput > ecmp.average_throughput

    def test_fattree_ecmp_mptcp_is_high(self, medium_fattree):
        result = simulate_fluid(
            medium_fattree,
            config=SimulationConfig(routing="ecmp", congestion_control=MPTCP),
            rng=7,
        )
        assert result.average_throughput > 0.85

    def test_simulated_throughput_below_lp_optimum(self, equipment_jellyfish):
        traffic = random_permutation_traffic(equipment_jellyfish, rng=8)
        optimum = normalized_throughput(
            equipment_jellyfish, traffic, k=12
        ).normalized
        simulated = simulate_fluid(
            equipment_jellyfish, traffic,
            SimulationConfig(routing="ksp", congestion_control=MPTCP), rng=8,
        ).average_throughput
        assert simulated <= optimum + 0.1

    def test_mptcp_at_least_tcp8_on_ksp(self, equipment_jellyfish):
        traffic = random_permutation_traffic(equipment_jellyfish, rng=9)
        tcp8 = simulate_fluid(
            equipment_jellyfish, traffic,
            SimulationConfig(routing="ksp", congestion_control=TCP_EIGHT_FLOWS), rng=9,
        )
        mptcp = simulate_fluid(
            equipment_jellyfish, traffic,
            SimulationConfig(routing="ksp", congestion_control=MPTCP), rng=9,
        )
        assert mptcp.average_throughput >= tcp8.average_throughput - 1e-6
