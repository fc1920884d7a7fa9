"""Cross-module integration tests: the paper's core claims end to end."""

import pytest

from repro.flow.mcf import max_concurrent_flow_edge_lp
from repro.flow.path_lp import max_concurrent_flow_path_lp
from repro.flow.throughput import normalized_throughput, supports_full_throughput
from repro.routing.paths import build_path_set
from repro.simulation.fluid import MPTCP, SimulationConfig, simulate_fluid
from repro.topologies.fattree import FatTreeTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic
from repro.utils.stats import mean

from oracles.routing import assert_valid_path_set


class TestJellyfishVersusFatTree:
    """Section 4.1: same equipment, shorter paths, no less capacity."""

    def test_shorter_average_paths_than_fattree(self, medium_fattree):
        jellyfish = JellyfishTopology.from_equipment(
            medium_fattree.num_switches, 6, medium_fattree.num_servers, rng=1
        )
        assert (
            jellyfish.switch_average_path_length()
            < medium_fattree.switch_average_path_length()
        )

    def test_diameter_no_worse_than_fattree(self, medium_fattree):
        jellyfish = JellyfishTopology.from_equipment(
            medium_fattree.num_switches, 6, medium_fattree.num_servers, rng=2
        )
        assert jellyfish.switch_diameter() <= medium_fattree.switch_diameter()

    def test_full_throughput_at_fattree_server_count(self, medium_fattree):
        jellyfish = JellyfishTopology.from_equipment(
            medium_fattree.num_switches, 6, medium_fattree.num_servers, rng=3
        )
        assert supports_full_throughput(
            jellyfish, num_matrices=2, k=8, rng=3
        )

    def test_incremental_expansion_keeps_capacity(self):
        topology = JellyfishTopology.build(20, 12, 8, rng=4)
        base = normalized_throughput(topology, k=8, rng=4).normalized
        topology.expand(10, 12, 4, rng=5)
        expanded = normalized_throughput(topology, k=8, rng=5).normalized
        assert expanded >= base - 0.15


class TestLpEngineAgreement:
    def test_path_lp_close_to_edge_lp_on_fattree(self, small_fattree):
        traffic = random_permutation_traffic(small_fattree, rng=6)
        edge = max_concurrent_flow_edge_lp(small_fattree, traffic)
        path = max_concurrent_flow_path_lp(small_fattree, traffic, k=8)
        assert path == pytest.approx(edge, rel=0.05)

    def test_path_lp_close_to_edge_lp_on_jellyfish(self, small_jellyfish):
        traffic = random_permutation_traffic(small_jellyfish, rng=7)
        edge = max_concurrent_flow_edge_lp(small_jellyfish, traffic)
        path = max_concurrent_flow_path_lp(small_jellyfish, traffic, k=16)
        assert path <= edge + 1e-6
        assert path >= 0.92 * edge


class TestRoutingAndCongestionControl:
    """Section 5: practical routing captures most of the LP capacity."""

    def test_ksp_mptcp_close_to_optimal(self):
        topology = JellyfishTopology.build(16, 8, 5, rng=8)
        traffic = random_permutation_traffic(topology, rng=8)
        optimal = normalized_throughput(topology, traffic, k=12).normalized
        simulated = simulate_fluid(
            topology, traffic,
            SimulationConfig(routing="ksp", k=8, congestion_control=MPTCP),
            rng=8,
        ).average_throughput
        assert simulated >= 0.75 * optimal

    def test_path_sets_reused_across_engines(self, equipment_jellyfish):
        traffic = random_permutation_traffic(equipment_jellyfish, rng=9)
        pairs = list(traffic.switch_pairs())
        path_set = build_path_set(equipment_jellyfish.csr(), pairs, scheme="ksp", k=8)
        assert_valid_path_set(path_set, equipment_jellyfish.graph)
        via_lp = max_concurrent_flow_path_lp(
            equipment_jellyfish, traffic, path_set=path_set
        )
        via_sim = simulate_fluid(
            equipment_jellyfish, traffic,
            SimulationConfig(routing="ksp", k=8, congestion_control=MPTCP),
            rng=9, path_set=path_set,
        ).average_throughput
        assert via_sim <= min(via_lp, 1.0) + 0.1

    def test_average_throughput_reproducible_with_seed(self, equipment_jellyfish):
        traffic = random_permutation_traffic(equipment_jellyfish, rng=10)
        config = SimulationConfig(routing="ksp", k=8, congestion_control=MPTCP)
        first = simulate_fluid(equipment_jellyfish, traffic, config, rng=11)
        second = simulate_fluid(equipment_jellyfish, traffic, config, rng=11)
        assert first.average_throughput == pytest.approx(second.average_throughput)


class TestFailureResilience:
    def test_random_graph_stays_connected_after_moderate_failures(self):
        from repro.failures.injection import fail_random_links

        topology = JellyfishTopology.build(40, 10, 6, rng=12)
        failed = fail_random_links(topology, 0.15, rng=12)
        assert failed.is_connected()

    def test_fifteen_percent_failures_cost_less_than_thirty_percent_capacity(self):
        topology = JellyfishTopology.build(30, 10, 6, rng=13)
        from repro.failures.injection import throughput_under_link_failures

        series = throughput_under_link_failures(
            topology, [0.0, 0.15], k=8, rng=13
        )
        baseline, degraded = series[0][1], series[1][1]
        assert degraded >= baseline * 0.7
