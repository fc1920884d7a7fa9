"""Tests for the throughput harness (normalized throughput, binary search)."""

import random

import pytest

from repro.flow.throughput import (
    largest_feasible,
    max_servers_at_full_throughput,
    normalized_throughput,
    supports_full_throughput,
)
from repro.simulation.aimd import AimdConfig, simulate_aimd
from repro.simulation.fluid import TCP_ONE_FLOW, SimulationConfig, simulate_fluid
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic


class TestNormalizedThroughput:
    def test_fattree_supports_full_capacity(self, small_fattree):
        result = normalized_throughput(small_fattree, rng=1)
        assert result.supports_full_capacity()
        assert result.normalized == pytest.approx(1.0)

    def test_normalized_capped_at_one(self, small_jellyfish):
        result = normalized_throughput(small_jellyfish, k=8, rng=2)
        assert 0.0 <= result.normalized <= 1.0

    def test_num_flows_matches_traffic(self, small_fattree):
        traffic = random_permutation_traffic(small_fattree, rng=3)
        result = normalized_throughput(small_fattree, traffic, k=4)
        assert result.num_flows == len(traffic)

    def test_empty_topology(self, small_jellyfish):
        topo = small_jellyfish.copy()
        for node in topo.graph.nodes:
            topo.servers[node] = 0
        result = normalized_throughput(topo, rng=4)
        assert result.normalized == 1.0
        assert result.num_flows == 0


class TestOmittedTrafficDraws:
    """Given no matrix, each evaluator draws the permutation from its rng
    first, then evaluates with the same rng -- exactly what an explicit draw
    followed by the call does, down to the generator's final state."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normalized_throughput(self, small_jellyfish, seed):
        implicit_rng = random.Random(seed)
        implicit = normalized_throughput(small_jellyfish, k=4, rng=implicit_rng)
        explicit_rng = random.Random(seed)
        traffic = random_permutation_traffic(small_jellyfish, rng=explicit_rng)
        assert implicit == normalized_throughput(small_jellyfish, traffic, k=4)
        assert implicit_rng.getstate() == explicit_rng.getstate()

    @staticmethod
    def _assert_same_draws(simulate, topology, config, seed):
        implicit_rng = random.Random(seed)
        implicit = simulate(topology, config=config, rng=implicit_rng)
        explicit_rng = random.Random(seed)
        traffic = random_permutation_traffic(topology, rng=explicit_rng)
        after_matrix = explicit_rng.getstate()
        explicit = simulate(topology, traffic, config, rng=explicit_rng)
        # TCP with one flow picks each flow's path from the rng after the
        # matrix, so the state comparison covers both draws.
        assert explicit_rng.getstate() != after_matrix
        assert implicit.flow_throughputs == explicit.flow_throughputs
        assert implicit_rng.getstate() == explicit_rng.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_simulate_fluid_tcp1(self, small_jellyfish, seed):
        config = SimulationConfig(routing="ksp", k=4, congestion_control=TCP_ONE_FLOW)
        self._assert_same_draws(simulate_fluid, small_jellyfish, config, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_simulate_aimd_tcp1(self, small_jellyfish, seed):
        config = AimdConfig(
            routing="ksp", k=4, congestion_control=TCP_ONE_FLOW,
            rounds=40, warmup_rounds=10,
        )
        self._assert_same_draws(simulate_aimd, small_jellyfish, config, seed)


class TestSupportsFullThroughput:
    def test_fattree(self, small_fattree):
        assert supports_full_throughput(small_fattree, num_matrices=2, k=8, rng=1)

    def test_oversubscribed_jellyfish_fails(self):
        # 2 network ports per switch but 6 servers: far too oversubscribed.
        topo = JellyfishTopology.build(12, 8, 2, rng=1)
        assert not supports_full_throughput(topo, num_matrices=1, k=4, rng=2)

    def test_disconnected_topology_reports_false(self, small_jellyfish):
        topo = small_jellyfish.copy()
        topo.remove_links(list(topo.graph.edges))
        assert not supports_full_throughput(topo, num_matrices=1, rng=3)


class TestLargestFeasible:
    @staticmethod
    def _recording(threshold):
        probes = []

        def feasible(count):
            probes.append(count)
            return count <= threshold

        return feasible, probes

    def test_probes_high_first_then_midpoints(self):
        feasible, probes = self._recording(13)
        assert largest_feasible(feasible, 10, 20) == 13
        assert probes == [20, 15, 12, 13, 14]

    def test_everything_feasible(self):
        feasible, probes = self._recording(100)
        assert largest_feasible(feasible, 10, 20) == 20
        assert probes == [20]

    def test_nothing_above_low_feasible(self):
        feasible, probes = self._recording(10)
        assert largest_feasible(feasible, 10, 20) == 10
        assert probes == [20, 15, 12, 11]


class TestBinarySearch:
    def test_finds_threshold_with_synthetic_factory(self):
        # Use a deterministic fake: a topology family that supports full
        # throughput iff it hosts at most 24 servers.
        threshold = 24

        def factory(num_servers: int):
            degree = 8 if num_servers <= threshold else 1
            return JellyfishTopology.build(
                12, 12, degree, rng=1, servers_per_switch=max(1, num_servers // 12)
            )

        best = max_servers_at_full_throughput(
            factory, lower=12, upper=48, num_matrices=1, k=4, rng=1
        )
        assert 12 <= best <= threshold + 12  # coarse: factory granularity is 12

    def test_lower_bound_infeasible_raises(self):
        def factory(num_servers: int):
            return JellyfishTopology.build(12, 8, 1, rng=1, servers_per_switch=4)

        with pytest.raises(ValueError):
            max_servers_at_full_throughput(factory, lower=10, upper=20, num_matrices=1, rng=1)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            max_servers_at_full_throughput(lambda n: None, lower=10, upper=5)

    def test_jellyfish_matches_fattree_equipment(self, small_fattree):
        # The Jellyfish built from the k=4 fat-tree's equipment supports at
        # least as many servers at full capacity.
        def factory(num_servers: int):
            return JellyfishTopology.from_equipment(
                num_switches=small_fattree.num_switches,
                ports_per_switch=4,
                num_servers=num_servers,
                rng=5,
            )

        best = max_servers_at_full_throughput(
            factory,
            lower=8,
            upper=small_fattree.num_switches * 1,
            num_matrices=1,
            k=8,
            rng=6,
        )
        assert best >= small_fattree.num_servers * 0.8
