"""Compute-heavy scenario targets used by the engine benchmarks and demos.

These are real workloads (Jellyfish construction and LP throughput)
packaged as picklable module-level targets so the benchmark suite can
exercise :class:`~repro.engine.runner.SweepRunner` sharding and the
result cache on representative scenario points rather than synthetic sleeps.
"""

from __future__ import annotations

from typing import Optional

from repro.flow.throughput import normalized_throughput
from repro.telemetry import trace
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import ensure_rng


def jellyfish_throughput_point(
    num_switches: int,
    ports: int,
    network_degree: int,
    k: int = 8,
    seed: Optional[int] = None,
) -> dict:
    """Normalized random-permutation throughput of one Jellyfish (path-LP)."""
    rng = ensure_rng(seed)
    with trace("target.build", switches=num_switches):
        topology = JellyfishTopology.build(
            num_switches, ports, network_degree, rng=rng
        )
    value = normalized_throughput(topology, k=k, rng=rng).normalized
    return {"normalized_throughput": value}
