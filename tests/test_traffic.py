"""Tests for traffic matrices."""

import pytest

from repro.traffic.matrices import (
    all_to_all_traffic,
    hotspot_traffic,
    random_permutation_traffic,
    stride_traffic,
)


def total_demand(traffic):
    return sum(demand.rate for demand in traffic)


class TestRandomPermutation:
    def test_every_server_sends_and_receives_once(self, small_fattree):
        traffic = random_permutation_traffic(small_fattree, rng=1)
        sources = [d.source for d in traffic]
        destinations = [d.destination for d in traffic]
        servers = [tuple(s) for s in small_fattree.server_list()]
        assert sorted(sources) == sorted(servers)
        assert sorted(destinations) == sorted(servers)

    def test_no_fixed_points(self, small_fattree):
        traffic = random_permutation_traffic(small_fattree, rng=2)
        assert all(d.source != d.destination for d in traffic)

    def test_rates(self, small_fattree):
        traffic = random_permutation_traffic(small_fattree, rate=2.5, rng=3)
        assert all(d.rate == 2.5 for d in traffic)
        assert total_demand(traffic) == pytest.approx(2.5 * 16)

    def test_deterministic_with_seed(self, small_fattree):
        a = random_permutation_traffic(small_fattree, rng=5)
        b = random_permutation_traffic(small_fattree, rng=5)
        assert [(d.source, d.destination) for d in a] == [
            (d.source, d.destination) for d in b
        ]

    def test_single_server_gives_empty_matrix(self, small_jellyfish):
        topo = small_jellyfish.copy()
        for node in topo.graph.nodes:
            topo.servers[node] = 0
        topo.servers[0] = 1
        assert len(random_permutation_traffic(topo, rng=1)) == 0

    def test_invalid_rate(self, small_fattree):
        with pytest.raises(ValueError):
            random_permutation_traffic(small_fattree, rate=0)


class TestSwitchPairAggregation:
    def test_same_switch_traffic_excluded(self, small_jellyfish):
        traffic = random_permutation_traffic(small_jellyfish, rng=4)
        pairs = traffic.switch_pairs()
        assert all(src != dst for src, dst in pairs)
        # Aggregated demand never exceeds total demand.
        assert sum(pairs.values()) <= total_demand(traffic) + 1e-9

    def test_scaled(self, small_fattree):
        traffic = random_permutation_traffic(small_fattree, rng=6)
        double = traffic.scaled(2.0)
        assert total_demand(double) == pytest.approx(2 * total_demand(traffic))


class TestOtherPatterns:
    def test_all_to_all_counts(self, small_fattree):
        traffic = all_to_all_traffic(small_fattree)
        n = small_fattree.num_servers
        assert len(traffic) == n * (n - 1)
        # Each server's total send rate equals the requested rate.
        per_source = {}
        for demand in traffic:
            per_source[demand.source] = per_source.get(demand.source, 0.0) + demand.rate
        assert all(value == pytest.approx(1.0) for value in per_source.values())

    def test_stride(self, small_fattree):
        traffic = stride_traffic(small_fattree, stride=3)
        assert len(traffic) == small_fattree.num_servers
        assert all(d.source != d.destination for d in traffic)

    def test_stride_zero_rejected(self, small_fattree):
        with pytest.raises(ValueError):
            stride_traffic(small_fattree, stride=0)

    def test_hotspot(self, small_fattree):
        traffic = hotspot_traffic(small_fattree, num_hotspots=2, rng=1)
        destinations = {d.destination for d in traffic}
        assert len(destinations) <= 2

    def test_hotspot_invalid_count(self, small_fattree):
        with pytest.raises(ValueError):
            hotspot_traffic(small_fattree, num_hotspots=0)
