#!/usr/bin/env python3
"""Quickstart: build a Jellyfish, compare it with a fat-tree, route traffic.

Run with:  python examples/quickstart.py
"""

from repro import (
    FatTreeTopology,
    JellyfishTopology,
    SimulationConfig,
    normalized_throughput,
    random_permutation_traffic,
    simulate_fluid,
)


def main() -> None:
    # 1. A fat-tree built from 6-port switches fixes the equipment pool:
    #    45 switches, 54 servers, full bisection bandwidth.
    fattree = FatTreeTopology.build(6)
    print(f"fat-tree      : {fattree.num_switches} switches, "
          f"{fattree.num_servers} servers, {fattree.num_links} links")

    # 2. A Jellyfish from the *same* equipment: random regular graph among
    #    the top-of-rack switches, every spare port used for the network.
    jellyfish = JellyfishTopology.from_equipment(
        num_switches=fattree.num_switches,
        ports_per_switch=6,
        num_servers=fattree.num_servers,
        rng=0,
    )
    print(f"jellyfish     : {jellyfish.num_switches} switches, "
          f"{jellyfish.num_servers} servers, {jellyfish.num_links} links")

    # 3. Paths are shorter on the random graph -- that is where the capacity
    #    advantage comes from (Fig 1).
    print(f"mean path     : fat-tree {fattree.switch_average_path_length():.2f} hops, "
          f"jellyfish {jellyfish.switch_average_path_length():.2f} hops")

    # 4. Optimal-routing throughput under random-permutation traffic.
    traffic = random_permutation_traffic(jellyfish, rng=1)
    optimal = normalized_throughput(jellyfish, traffic, k=8)
    print(f"LP throughput : {optimal.normalized:.3f} "
          f"(theta = {optimal.theta:.3f}, full capacity = {optimal.supports_full_capacity()})")

    # 5. What a real deployment would see: 8-shortest-path routing + MPTCP.
    config = SimulationConfig(routing="ksp", k=8, congestion_control="mptcp")
    simulated = simulate_fluid(jellyfish, traffic, config, rng=2)
    print(f"ksp + MPTCP   : average throughput {simulated.average_throughput:.3f}, "
          f"Jain fairness {simulated.fairness:.3f}")


if __name__ == "__main__":
    main()
