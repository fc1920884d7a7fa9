"""Parity suite for the vectorized AIMD round engine (repro.simulation.aimd).

Pins the array-native engine bit-for-bit against the retained scalar
reference (:mod:`repro.simulation._reference`) across routing schemes
(ksp/ecmp), congestion controls (tcp1/tcp8/mptcp), same-rack demands and
zero-demand corners: throughputs, per-round traces and the convergence
measurement must match exactly (the kernel's ``np.bincount`` segmented sums
accumulate in the same order as the reference's dict walks).  Also covers
the shared content-hash-cached capacity helper both simulators now use.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulation._reference import simulate_aimd_reference
from repro.simulation.aimd import AimdConfig, measure_convergence_round, simulate_aimd
from repro.memo import clear_memos
from repro.simulation.capacity import link_capacities
from repro.topologies.clos import LeafSpineTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import Demand, TrafficMatrix, random_permutation_traffic

COMMON_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Small prebuilt topologies reused across hypothesis examples (construction
#: and routing dominate example time; the engines under test do not).
_TOPOLOGIES = [
    JellyfishTopology.build(8, 5, 3, rng=0),
    JellyfishTopology.build(12, 6, 4, rng=1),
]


def _assert_same_result(new, old):
    assert len(new.flow_throughputs) == len(old.flow_throughputs)
    for fast, slow in zip(new.flow_throughputs, old.flow_throughputs):
        assert float(fast) == float(slow)
    assert new.rounds == old.rounds
    assert new.convergence_round == old.convergence_round
    if old.trace is None:
        assert new.trace is None
    else:
        assert np.array_equal(np.asarray(new.trace), np.asarray(old.trace))


@st.composite
def aimd_problems(draw):
    """Random (topology, traffic, config, seed) quadruples.

    Traffic mixes cross-rack demands, same-rack demands (source and
    destination on one switch) and zero-rate demands -- the corners the
    result assembly must preserve.
    """
    topology = draw(st.sampled_from(_TOPOLOGIES))
    switches = sorted(topology.graph.nodes)
    demands = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        source = draw(st.sampled_from(switches))
        if draw(st.booleans()):
            destination = source  # same-rack demand
        else:
            destination = draw(st.sampled_from(switches))
        rate = draw(st.sampled_from([0.0, 0.25, 1.0, 2.0]))
        demands.append(
            Demand(source=(source, 0), destination=(destination, 0), rate=rate)
        )
    rounds = draw(st.integers(min_value=1, max_value=25))
    config = AimdConfig(
        routing=draw(st.sampled_from(["ksp", "ecmp"])),
        k=draw(st.sampled_from([2, 4])),
        congestion_control=draw(st.sampled_from(["tcp1", "tcp8", "mptcp"])),
        subflows=draw(st.integers(min_value=1, max_value=4)),
        rounds=rounds,
        warmup_rounds=min(draw(st.integers(min_value=0, max_value=10)), rounds - 1),
        packets_per_round=draw(st.sampled_from([1, 10, 100])),
        initial_cwnd=draw(st.sampled_from([1.0, 2.0, 5.0])),
        record_trace=True,
    )
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return topology, TrafficMatrix(demands), config, seed


class TestAimdParity:
    @COMMON_SETTINGS
    @given(aimd_problems())
    def test_bitwise_equal_to_reference(self, problem):
        topology, traffic, config, seed = problem
        new = simulate_aimd(topology, traffic, config, rng=seed)
        old = simulate_aimd_reference(topology, traffic, config, rng=seed)
        _assert_same_result(new, old)

    @pytest.mark.parametrize("congestion_control", ["tcp1", "tcp8", "mptcp"])
    @pytest.mark.parametrize("routing", ["ksp", "ecmp"])
    def test_permutation_traffic_parity(self, small_jellyfish, routing, congestion_control):
        """Realistic permutation workload, identical rng stream both sides."""
        config = AimdConfig(
            routing=routing,
            congestion_control=congestion_control,
            rounds=60,
            warmup_rounds=20,
            record_trace=True,
        )
        new = simulate_aimd(small_jellyfish, config=config, rng=9)
        old = simulate_aimd_reference(small_jellyfish, config=config, rng=9)
        _assert_same_result(new, old)

    def test_empty_traffic(self, small_jellyfish):
        empty = TrafficMatrix([])
        new = simulate_aimd(small_jellyfish, empty, rng=0)
        old = simulate_aimd_reference(small_jellyfish, empty, rng=0)
        _assert_same_result(new, old)
        assert new.average_throughput == 1.0

    def test_all_same_rack(self, small_jellyfish):
        switch = sorted(small_jellyfish.graph.nodes)[0]
        traffic = TrafficMatrix(
            [Demand(source=(switch, 0), destination=(switch, 1), rate=1.0)]
        )
        config = AimdConfig(rounds=5, warmup_rounds=1, record_trace=True)
        new = simulate_aimd(small_jellyfish, traffic, config, rng=0)
        old = simulate_aimd_reference(small_jellyfish, traffic, config, rng=0)
        _assert_same_result(new, old)
        assert new.flow_throughputs == [1.0]
        assert np.all(np.asarray(new.trace) == 1.0)

    def test_zero_demand_excluded_from_report(self, small_jellyfish):
        switches = sorted(small_jellyfish.graph.nodes)
        traffic = TrafficMatrix(
            [
                Demand(source=(switches[0], 0), destination=(switches[1], 0), rate=0.0),
                Demand(source=(switches[2], 0), destination=(switches[3], 0), rate=1.0),
            ]
        )
        config = AimdConfig(rounds=10, warmup_rounds=2, record_trace=True)
        new = simulate_aimd(small_jellyfish, traffic, config, rng=4)
        old = simulate_aimd_reference(small_jellyfish, traffic, config, rng=4)
        _assert_same_result(new, old)
        assert len(new.flow_throughputs) == 1
        assert np.asarray(new.trace).shape == (10, 1)

    def test_tcp8_per_subflow_cap_enforced(self, small_jellyfish):
        """tcp8 connections stripe evenly: one subflow cannot exceed 1/8."""
        traffic = random_permutation_traffic(small_jellyfish, rng=3)
        config = AimdConfig(
            congestion_control="tcp8", rounds=80, warmup_rounds=20, record_trace=True
        )
        new = simulate_aimd(small_jellyfish, traffic, config, rng=3)
        old = simulate_aimd_reference(small_jellyfish, traffic, config, rng=3)
        _assert_same_result(new, old)
        # With every subflow capped at demand/subflows, a connection that
        # loses one path cannot compensate on another: per-round normalized
        # goodput never exceeds 1 (cap) and the cap binds in aggregate.
        assert np.asarray(new.trace).max() <= 1.0 + 1e-9


class TestCapacityHelper:
    def test_shared_between_fluid_and_aimd(self, small_jellyfish):
        from repro.simulation import aimd, fluid

        assert fluid.link_capacities is aimd.link_capacities
        table = fluid.link_capacities(small_jellyfish)
        assert table is link_capacities(small_jellyfish)
        scaled = link_capacities(small_jellyfish, scale=100)
        assert scaled is not table
        edge = next(iter(table))
        assert scaled[edge] == table[edge] * 100

    def test_matches_graph_walk(self, small_jellyfish):
        clear_memos()
        table = link_capacities(small_jellyfish, scale=7.0)
        expected = {}
        for u, v, data in small_jellyfish.graph.edges(data=True):
            expected[(u, v)] = expected[(v, u)] = float(data.get("capacity", 1.0)) * 7.0
        assert table == expected

    def test_explicit_capacities_honored(self):
        clear_memos()
        topology = LeafSpineTopology.build(
            num_leaves=4, num_spines=2, servers_per_leaf=2,
            leaf_ports=10, spine_ports=12, links_per_pair=3,
        )
        table = link_capacities(topology)
        for u, v, data in topology.graph.edges(data=True):
            assert table[(u, v)] == float(data.get("capacity", 1.0))
            assert table[(v, u)] == float(data.get("capacity", 1.0))

    def test_cache_distinguishes_capacity_annotations(self):
        clear_memos()
        small = LeafSpineTopology.build(
            num_leaves=3, num_spines=2, servers_per_leaf=2,
            leaf_ports=8, spine_ports=8, links_per_pair=1,
        )
        big = LeafSpineTopology.build(
            num_leaves=3, num_spines=2, servers_per_leaf=2,
            leaf_ports=8, spine_ports=8, links_per_pair=2,
        )
        # Same labeled structure (a content-hash collision by design: trunk
        # multiplicity lives in the edge attribute), different capacities.
        assert link_capacities(small) != link_capacities(big)
