#!/usr/bin/env python3
"""Routing study: why ECMP wastes a random graph and k-shortest paths fix it.

Reproduces the Section 5 story on a small Jellyfish: count how many distinct
paths each link carries under 8-way ECMP vs 8-shortest-path routing (Fig 9),
then measure the throughput each scheme delivers with different congestion
controls (Table 1), including the round-based AIMD simulator as a
cross-check of the fluid model.

Run with:  python examples/routing_study.py
"""

from repro import JellyfishTopology, random_permutation_traffic
from repro.routing.diversity import fraction_links_at_or_below, link_path_counts
from repro.routing.paths import build_path_set
from repro.simulation.aimd import AimdConfig, simulate_aimd
from repro.simulation.fluid import SimulationConfig, simulate_fluid


def main() -> None:
    topology = JellyfishTopology.build(40, 10, 6, rng=0)
    traffic = random_permutation_traffic(topology, rng=1)
    pairs = list(traffic.switch_pairs())
    total_directed_links = 2 * topology.num_links

    print("== path diversity (Fig 9) ==")
    for label, scheme, width in [("8-way ECMP", "ecmp", 8),
                                 ("64-way ECMP", "ecmp", 64),
                                 ("8-shortest paths", "ksp", 8)]:
        path_set = build_path_set(topology.csr(), pairs, scheme=scheme, k=width)
        counts = link_path_counts(
            path for options in path_set.paths.values() for path in options
        )
        starved = fraction_links_at_or_below(counts, 2, total_directed_links)
        print(f"  {label:<18} links carrying <=2 paths: {starved:.0%}")

    print("\n== throughput under routing x congestion control (Table 1) ==")
    for routing in ("ecmp", "ksp"):
        for control in ("tcp1", "tcp8", "mptcp"):
            config = SimulationConfig(routing=routing, k=8, congestion_control=control)
            result = simulate_fluid(topology, traffic, config, rng=2)
            print(f"  {routing:<5} + {control:<6} average throughput "
                  f"{result.average_throughput:.3f}  (fairness {result.fairness:.3f})")

    print("\n== AIMD (round-based) cross-check ==")
    aimd = simulate_aimd(
        topology, traffic,
        AimdConfig(routing="ksp", k=8, congestion_control="mptcp",
                   rounds=200, warmup_rounds=80),
        rng=3,
    )
    print(f"  ksp + mptcp AIMD average throughput {aimd.average_throughput:.3f}")


if __name__ == "__main__":
    main()
