"""Random link and switch failures.

The paper's Fig 8 fails a random fraction of inter-switch links and measures
the drop in per-server throughput: Jellyfish degrades more gracefully than a
same-equipment fat-tree, and failing 15% of links costs less than 16% of
capacity.  A failed random graph is "just another random graph", so the
degradation is close to proportional.

A failure is a random sample (:func:`sample_failures`) removed from a
topology with :meth:`Topology.remove_links` /
:meth:`Topology.remove_switches`.  :func:`fail_random_links` and
:func:`fail_random_switches` remove it from a copy, which keeps the
topology's class and its edge data (a leaf-spine trunk keeps its
``capacity``).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Tuple

from repro.flow.throughput import degraded_throughput
from repro.topologies.base import Topology
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_fraction


def sample_failures(elements: Iterable, fraction: float, rand: random.Random) -> list:
    """``round(fraction * len(elements))`` of ``elements``, drawn by ``rand.sample``."""
    require_fraction(fraction, "fraction")
    elements = list(elements)
    return rand.sample(elements, int(round(fraction * len(elements))))


def fail_random_links(
    topology: Topology, fraction: float, rng: RngLike = None
) -> Topology:
    """Return a copy of ``topology`` with a random ``fraction`` of links removed.

    Server attachment links are never failed (only the switch interconnect),
    matching the paper's experiment.  If removing the links disconnects a
    switch that hosts servers, the copy is still returned -- the throughput
    evaluation will simply report the resulting capacity loss.
    """
    failed = topology.copy()
    to_fail = sample_failures(failed.graph.edges, fraction, ensure_rng(rng))
    if to_fail:
        failed.remove_links(to_fail)
        failed.name = f"{topology.name}+{fraction:.0%}-link-failures"
    return failed


def fail_random_switches(
    topology: Topology, fraction: float, rng: RngLike = None
) -> Topology:
    """Return a copy with a random ``fraction`` of switches (and their links) removed.

    Servers attached to failed switches are removed along with the switch.
    """
    failed = topology.copy()
    to_fail = sample_failures(failed.graph.nodes, fraction, ensure_rng(rng))
    if to_fail:
        failed.remove_switches(to_fail)
        failed.name = f"{topology.name}+{fraction:.0%}-switch-failures"
    return failed


def throughput_under_link_failures(
    topology: Topology,
    fractions,
    k: int = 8,
    rng: RngLike = None,
) -> List[Tuple[float, float]]:
    """Normalized throughput after failing each fraction of links.

    Returns (fraction, normalized throughput) pairs; the traffic matrix is an
    independently sampled random permutation for each point, as in Fig 8.
    Each point fails a fresh copy (:func:`fail_random_links`) and evaluates
    it with the degradation-aware harness
    (:func:`repro.flow.throughput.degraded_throughput`), so pairs left
    disconnected by the failures count as zero throughput.
    """
    rand = ensure_rng(rng)
    results = []
    for fraction in fractions:
        failed = fail_random_links(topology, fraction, rng=rand)
        outcome = degraded_throughput(failed, k=k, rng=rand)
        results.append((fraction, outcome.normalized))
    return results
