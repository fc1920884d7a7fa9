"""Tests for failure injection."""

import pytest

from repro.failures.injection import (
    fail_random_links,
    fail_random_links_core,
    fail_random_switches,
    fail_random_switches_core,
    link_failure_mask,
    switch_failure_mask,
    throughput_under_link_failures,
)


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


class TestMaskInjection:
    """Edge cases of the mask-based (TopologyCore) failure injection."""

    def test_double_injection_is_idempotent(self, small_jellyfish):
        import numpy as np

        core = small_jellyfish.core()
        mask = link_failure_mask(core.num_edges, 0.25, rng=7)
        failed = core.without_edges(mask)
        # Re-applying the *same* failure: none of the masked edges remain,
        # so the equivalent mask on the failed core is all-False and the
        # result is content-identical.
        again = failed.without_edges(np.zeros(failed.num_edges, dtype=bool))
        assert again.content_hash == failed.content_hash
        assert again.num_edges == failed.num_edges

    def test_failing_all_links_of_a_switch_matches_failing_the_switch(
        self, small_jellyfish
    ):
        import numpy as np

        core = small_jellyfish.core()
        victim = 3
        node_mask = np.zeros(core.num_nodes, dtype=bool)
        node_mask[victim] = True
        switch_failed = core.without_nodes(node_mask)

        edges = core.edge_array()
        edge_mask = (edges[:, 0] == victim) | (edges[:, 1] == victim)
        assert edge_mask.any()  # the victim actually had links
        # Removing every incident link first, then the (now isolated)
        # switch, must land on the same topology as failing the switch.
        links_then_switch = core.without_edges(edge_mask).without_nodes(node_mask)
        assert links_then_switch.content_hash == switch_failed.content_hash

    def test_empty_mask_injection_is_a_noop(self, small_jellyfish):
        import numpy as np

        core = small_jellyfish.core()
        no_links = core.without_edges(np.zeros(core.num_edges, dtype=bool))
        no_nodes = core.without_nodes(np.zeros(core.num_nodes, dtype=bool))
        assert no_links.content_hash == core.content_hash
        assert no_nodes.content_hash == core.content_hash
        assert no_links.num_edges == core.num_edges
        assert no_nodes.num_nodes == core.num_nodes

    def test_zero_fraction_masks_are_empty_and_identity(self, small_jellyfish):
        core = small_jellyfish.core()
        assert not link_failure_mask(core.num_edges, 0.0, rng=1).any()
        assert not switch_failure_mask(core.num_nodes, 0.0, rng=1).any()
        assert (
            fail_random_links_core(core, 0.0, rng=1).content_hash
            == core.content_hash
        )
        assert (
            fail_random_switches_core(core, 0.0, rng=1).content_hash
            == core.content_hash
        )
