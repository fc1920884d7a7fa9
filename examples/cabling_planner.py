#!/usr/bin/env python3
"""Cabling planner for a small cluster and a containerized deployment.

Covers Section 6 of the paper: place the switch cluster at the centre of the
floor, count cables and their lengths, check how many runs need optical
transceivers, and evaluate how much throughput a container deployment gives
up when most random links are kept inside the container (Fig 14).

Run with:  python examples/cabling_planner.py
"""

from repro import FatTreeTopology, JellyfishTopology, normalized_throughput
from repro.cabling.containers import (
    build_localized_jellyfish,
    fattree_local_link_fraction,
    local_link_fraction,
)
from repro.cabling.layout import FloorPlan


def small_cluster() -> None:
    print("== small cluster: switch-cluster layout (Section 6.2) ==")
    fattree = FatTreeTopology.build(6)
    jellyfish = JellyfishTopology.from_equipment(
        fattree.num_switches, 6, fattree.num_servers, rng=0
    )
    plan = FloorPlan(num_racks=fattree.num_switches, rack_pitch_m=1.2)
    for name, topology in [("fat-tree", fattree), ("jellyfish", jellyfish)]:
        report = plan.report(topology)
        print(f"  {name:<9} cables: {report.total_cables:>4} "
              f"(switch-switch {report.switch_to_switch_cables}, "
              f"server {report.server_to_switch_cables}); "
              f"optical: {report.num_optical}; "
              f"total cost ${report.total_cost:,.0f}")
    comparison = plan.compare(jellyfish, fattree)
    print(f"  jellyfish/fat-tree cable count ratio: "
          f"{comparison['cable_count_ratio']:.2f}")


def containerized() -> None:
    print("\n== containerized deployment: localized links (Fig 14) ==")
    containers, per_container = 4, 10
    unrestricted = JellyfishTopology.build(
        containers * per_container, 10, 6, rng=1, servers_per_switch=4
    )
    baseline = normalized_throughput(unrestricted, k=8, rng=1).normalized
    print(f"  unrestricted jellyfish throughput: {baseline:.3f}")
    print(f"  fat-tree in-pod link fraction (k=10): "
          f"{fattree_local_link_fraction(10):.2f}")
    for fraction in (0.2, 0.4, 0.6, 0.8):
        localized = build_localized_jellyfish(
            num_containers=containers,
            switches_per_container=per_container,
            ports_per_switch=10,
            network_degree=6,
            servers_per_switch=4,
            local_fraction=fraction,
            rng=2,
        )
        value = normalized_throughput(localized, k=8, rng=2).normalized
        print(f"  local fraction {local_link_fraction(localized):.2f}: "
              f"throughput {value:.3f} "
              f"({value / baseline:.0%} of unrestricted)")


if __name__ == "__main__":
    small_cluster()
    containerized()
