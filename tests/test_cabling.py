"""Tests for physical layout, cabling and the localized (two-layer) Jellyfish."""

import pytest

from repro.cabling.containers import (
    build_localized_jellyfish,
    container_of,
    fattree_local_link_fraction,
    local_link_fraction,
)
from repro.cabling.layout import FloorPlan
from repro.expansion.cost import CostModel


class TestFloorPlan:
    def test_rack_positions_on_grid(self):
        plan = FloorPlan(num_racks=9, rack_pitch_m=2.0)
        assert plan.rack_position(0) == (0.0, 0.0)
        assert plan.rack_position(4) == (2.0, 2.0)

    def test_rack_index_out_of_range(self):
        plan = FloorPlan(num_racks=4)
        with pytest.raises(ValueError):
            plan.rack_position(4)

    def test_cluster_in_the_middle(self):
        plan = FloorPlan(num_racks=9, rack_pitch_m=2.0)
        assert plan.cluster_position() == (2.0, 2.0)

    def test_rack_to_cluster_length_is_positive(self):
        plan = FloorPlan(num_racks=16)
        assert all(plan.rack_to_cluster_length(i) > 0 for i in range(16))


class TestCablingReport:
    def test_counts(self, small_jellyfish):
        plan = FloorPlan(num_racks=small_jellyfish.num_switches)
        report = plan.report(small_jellyfish)
        assert report.switch_to_switch_cables == small_jellyfish.num_links
        assert report.server_to_switch_cables == small_jellyfish.num_servers
        assert report.total_cables == small_jellyfish.num_links + small_jellyfish.num_servers
        assert len(report.cable_lengths_m) == report.total_cables

    def test_costs_positive(self, small_jellyfish):
        plan = FloorPlan(num_racks=small_jellyfish.num_switches)
        report = plan.report(small_jellyfish)
        assert report.total_cost > 0
        assert sum(report.cable_lengths_m) > 0

    def test_electrical_versus_optical_split(self, small_jellyfish):
        plan = FloorPlan(
            num_racks=small_jellyfish.num_switches,
            rack_pitch_m=30.0,  # force long server runs
            cost_model=CostModel(electrical_cable_limit_m=10.0),
        )
        report = plan.report(small_jellyfish)
        assert report.num_optical > 0
        electrical = [
            length for length in report.cable_lengths_m
            if length <= report.electrical_limit_m
        ]
        assert report.num_optical + len(electrical) == report.total_cables

    def test_jellyfish_needs_fewer_cables_than_fattree(self, medium_fattree):
        """Section 6.2: same servers, 15-20% fewer cables for Jellyfish."""
        from repro.topologies.jellyfish import JellyfishTopology

        jellyfish = JellyfishTopology.build(30, 6, 4, rng=1, servers_per_switch=2)
        assert jellyfish.num_servers > medium_fattree.num_servers
        plan = FloorPlan(num_racks=45)
        comparison = plan.compare(jellyfish, medium_fattree)
        assert comparison["cable_count_ratio"] < 1.0


class TestLocalizedJellyfish:
    def test_structure(self):
        topo = build_localized_jellyfish(
            num_containers=3, switches_per_container=8, ports_per_switch=10,
            network_degree=6, servers_per_switch=4, local_fraction=0.5, rng=1,
        )
        assert topo.num_switches == 24
        assert topo.num_servers == 96
        topo.validate()

    def test_local_fraction_tracks_request(self):
        low = build_localized_jellyfish(3, 10, 10, 6, 4, local_fraction=0.0, rng=2)
        high = build_localized_jellyfish(3, 10, 10, 6, 4, local_fraction=0.9, rng=2)
        assert local_link_fraction(high) > local_link_fraction(low)

    def test_fully_local_disconnects_containers(self):
        topo = build_localized_jellyfish(2, 8, 10, 4, 4, local_fraction=1.0, rng=3)
        assert local_link_fraction(topo) == pytest.approx(1.0)
        assert not topo.is_connected()

    def test_container_of(self):
        topo = build_localized_jellyfish(2, 6, 10, 4, 4, local_fraction=0.5, rng=4)
        assert {container_of(node) for node in topo.graph.nodes} == {0, 1}

    def test_invalid_parameters(self):
        with pytest.raises(Exception):
            build_localized_jellyfish(1, 1, 10, 4, 4, local_fraction=0.5)
        with pytest.raises(Exception):
            build_localized_jellyfish(2, 8, 4, 4, 4, local_fraction=0.5)

    def test_fattree_local_fraction_formula(self):
        assert fattree_local_link_fraction(14) == pytest.approx(0.5 * (1 + 1 / 14))
        with pytest.raises(ValueError):
            fattree_local_link_fraction(0)
