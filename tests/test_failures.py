"""Tests for failure injection."""

import pytest

from repro.failures.injection import (
    fail_random_links,
    fail_random_switches,
    throughput_under_link_failures,
)
from repro.topologies.clos import LeafSpineTopology
from repro.topologies.degree_diameter import DegreeDiameterTopology
from repro.topologies.fattree import FatTreeTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.topologies.swdc import RING, SmallWorldTopology


def trunked_leaf_spine():
    """4 leaves x 8 servers, 2 spines, each leaf-spine pair a 2-cable trunk."""
    return LeafSpineTopology.build(4, 2, 8, 12, 8, links_per_pair=2)


FAMILIES = {
    "fattree": lambda: FatTreeTopology.build(4),
    "jellyfish": lambda: JellyfishTopology.build(16, 6, 4, rng=0),  # core-backed
    "leaf-spine": trunked_leaf_spine,
    "swdc": lambda: SmallWorldTopology.build(30, RING, degree=6, rng=7),
    "degree-diameter": lambda: DegreeDiameterTopology.build(
        20, 6, 4, rng=0, iterations=10
    ),
}


def edge_data(topology) -> dict:
    return {frozenset((u, v)): data for u, v, data in topology.graph.edges(data=True)}


class TestFailRandomLinks:
    def test_fraction_of_links_removed(self, small_jellyfish):
        failed = fail_random_links(small_jellyfish, 0.25, rng=1)
        expected_removed = round(0.25 * small_jellyfish.num_links)
        assert failed.num_links == small_jellyfish.num_links - expected_removed

    def test_original_untouched(self, small_jellyfish):
        links_before = small_jellyfish.num_links
        fail_random_links(small_jellyfish, 0.5, rng=2)
        assert small_jellyfish.num_links == links_before

    def test_servers_preserved(self, small_jellyfish):
        failed = fail_random_links(small_jellyfish, 0.3, rng=3)
        assert failed.num_servers == small_jellyfish.num_servers

    def test_zero_fraction_is_identity(self, small_jellyfish):
        failed = fail_random_links(small_jellyfish, 0.0, rng=4)
        assert failed.num_links == small_jellyfish.num_links

    def test_invalid_fraction(self, small_jellyfish):
        with pytest.raises(ValueError):
            fail_random_links(small_jellyfish, 1.5)


class TestFailRandomSwitches:
    def test_switches_and_their_servers_removed(self, small_jellyfish):
        failed = fail_random_switches(small_jellyfish, 0.2, rng=1)
        removed = round(0.2 * small_jellyfish.num_switches)
        assert failed.num_switches == small_jellyfish.num_switches - removed
        assert failed.num_servers < small_jellyfish.num_servers

    def test_zero_fraction(self, small_jellyfish):
        failed = fail_random_switches(small_jellyfish, 0.0, rng=2)
        assert failed.num_switches == small_jellyfish.num_switches


class TestThroughputUnderFailures:
    def test_throughput_decreases_gracefully(self, small_jellyfish):
        series = throughput_under_link_failures(
            small_jellyfish, [0.0, 0.2], k=8, rng=1
        )
        assert len(series) == 2
        baseline = series[0][1]
        degraded = series[1][1]
        assert 0.0 <= degraded <= baseline + 0.15

    def test_all_points_in_unit_interval(self, small_jellyfish):
        series = throughput_under_link_failures(
            small_jellyfish, [0.0, 0.1, 0.3], k=4, rng=2
        )
        assert all(0.0 <= value <= 1.0 for _, value in series)

    def test_heavy_failures_do_not_crash(self, small_jellyfish):
        # Failing most links can disconnect the network; the harness must
        # still return a (low) throughput value rather than raising.
        series = throughput_under_link_failures(
            small_jellyfish, [0.8], k=4, rng=3
        )
        assert 0.0 <= series[0][1] <= 1.0


class TestOneFailurePath:
    """Failures copy the topology and remove from the copy, for every family."""

    @pytest.mark.parametrize("fail", [fail_random_links, fail_random_switches])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_zero_fraction_keeps_class_and_edge_data(self, family, fail):
        topology = FAMILIES[family]()
        failed = fail(topology, 0.0, rng=1)
        assert type(failed) is type(topology)
        assert edge_data(failed) == edge_data(topology)

    def test_leaf_spine_trunks_keep_their_capacity(self):
        topology = trunked_leaf_spine()
        failed = fail_random_links(topology, 0.25, rng=5)
        assert isinstance(failed, LeafSpineTopology)
        assert failed.num_links == topology.num_links - 2
        assert all(data == {"capacity": 2.0} for data in edge_data(failed).values())

    def test_leaf_spine_throughput_counts_trunk_capacity(self):
        series = throughput_under_link_failures(
            trunked_leaf_spine(), [0.0, 0.25], rng=5
        )
        assert [value for _, value in series] == pytest.approx([2 / 3, 0.25])
