#!/usr/bin/env python3
"""Incrementally grow a Jellyfish data center, one rack at a time.

This is the workload the paper's introduction motivates: a data center that
doubles its server count in small increments (Facebook-style growth) without
replacing switches or losing capacity.  The script grows a network rack by
rack, tracks path lengths and throughput, and prices each step with the cost
model.

Run with:  python examples/expand_datacenter.py
"""

from repro import JellyfishTopology, normalized_throughput
from repro.expansion.cost import CostModel


def main() -> None:
    ports = 12
    servers_per_rack = 4
    network_degree = ports - servers_per_rack
    cost_model = CostModel()

    # Start with a 20-rack pod.
    topology = JellyfishTopology.build(
        20, ports, network_degree, rng=0, servers_per_switch=servers_per_rack
    )
    print(f"initial network: {topology.num_switches} racks, "
          f"{topology.num_servers} servers")

    total_cost = 0.0
    print(f"{'racks':>6} {'servers':>8} {'mean path':>10} {'diameter':>9} "
          f"{'throughput':>11} {'step cost $':>12}")
    for step in range(1, 21):
        rack_id = ("rack", 20 + step)
        topology.add_rack(rack_id, ports, servers=servers_per_rack, rng=step)

        # Each pair of new network ports moves one existing cable.
        moved = topology.rewired_links_for_expansion(network_degree)
        step_cost = cost_model.expansion_cost(
            new_switch_ports=ports,
            new_cables=network_degree + servers_per_rack,
            cables_moved=moved,
        )
        total_cost += step_cost

        if step % 4 == 0:
            throughput = normalized_throughput(topology, k=8, rng=step).normalized
            print(f"{topology.num_switches:>6} {topology.num_servers:>8} "
                  f"{topology.switch_average_path_length():>10.2f} "
                  f"{topology.switch_diameter():>9} "
                  f"{throughput:>11.3f} {step_cost:>12.0f}")

    print(f"\ngrew from 80 to {topology.num_servers} servers for "
          f"${total_cost:,.0f} without touching the original switches.")


if __name__ == "__main__":
    main()
