"""Random link and switch failures.

The paper's Fig 8 fails a random fraction of inter-switch links and measures
the drop in per-server throughput: Jellyfish degrades more gracefully than a
same-equipment fat-tree, and failing 15% of links costs less than 16% of
capacity.  A failed random graph is "just another random graph", so the
degradation is close to proportional.

Two failure interfaces are provided:

* the historical copy-and-remove functions (:func:`fail_random_links`,
  :func:`fail_random_switches`) that operate on a :class:`Topology`;
* vectorized mask-based variants over a
  :class:`~repro.topologies.core.TopologyCore`'s edge arrays
  (:func:`link_failure_mask` / :func:`fail_random_links_core` and the
  switch equivalents), used by the ensemble subsystem where hundreds of
  failed instances are generated without materializing ``networkx``
  graphs.  For the same seed the mask selects exactly the edges the
  copy-and-remove path would have removed (the rng draws depend only on
  the edge count, and core edge order equals ``list(graph.edges)`` order);
  the parity suite in ``tests/test_topology_core.py`` pins this.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

import numpy as np

from repro.flow.throughput import degraded_throughput
from repro.topologies.base import Topology
from repro.topologies.core import TopologyCore
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_fraction


def fail_random_links(
    topology: Topology, fraction: float, rng: RngLike = None
) -> Topology:
    """Return a copy of ``topology`` with a random ``fraction`` of links removed.

    Server attachment links are never failed (only the switch interconnect),
    matching the paper's experiment.  If removing the links disconnects a
    switch that hosts servers, the copy is still returned -- the throughput
    evaluation will simply report the resulting capacity loss.
    """
    require_fraction(fraction, "fraction")
    rand = ensure_rng(rng)
    failed = topology.copy()
    links: List[Tuple[Hashable, Hashable]] = list(failed.graph.edges)
    num_to_fail = int(round(fraction * len(links)))
    if num_to_fail == 0:
        return failed
    to_fail = rand.sample(links, num_to_fail)
    failed.remove_links(to_fail)
    failed.name = f"{topology.name}+{fraction:.0%}-link-failures"
    return failed


def fail_random_switches(
    topology: Topology, fraction: float, rng: RngLike = None
) -> Topology:
    """Return a copy with a random ``fraction`` of switches (and their links) removed.

    Servers attached to failed switches are removed along with the switch.
    """
    require_fraction(fraction, "fraction")
    rand = ensure_rng(rng)
    failed = topology.copy()
    switches = list(failed.graph.nodes)
    num_to_fail = int(round(fraction * len(switches)))
    if num_to_fail == 0:
        return failed
    to_fail = rand.sample(switches, num_to_fail)
    for switch in to_fail:
        failed.graph.remove_node(switch)
        failed.ports.pop(switch, None)
        failed.servers.pop(switch, None)
    failed.name = f"{topology.name}+{fraction:.0%}-switch-failures"
    return failed


def _sample_failure_mask(count: int, fraction: float, rng: RngLike) -> np.ndarray:
    """Boolean mask with ``round(fraction * count)`` uniformly sampled slots.

    Draws from the rng exactly like the copy-and-remove paths'
    ``rand.sample(list(...), m)`` (sampling indices instead of elements
    consumes the identical stream), which is what makes the mask-based
    failures select the same links/switches as the historical functions for
    the same seed.
    """
    require_fraction(fraction, "fraction")
    rand = ensure_rng(rng)
    mask = np.zeros(count, dtype=bool)
    num_to_fail = int(round(fraction * count))
    if num_to_fail:
        mask[rand.sample(range(count), num_to_fail)] = True
    return mask


def link_failure_mask(
    num_links: int, fraction: float, rng: RngLike = None
) -> np.ndarray:
    """Boolean failure mask over a core's edge array.

    For the same seed the masked edges are the ones
    :func:`fail_random_links` would remove.
    """
    return _sample_failure_mask(num_links, fraction, rng)


def fail_random_links_core(
    core: TopologyCore, fraction: float, rng: RngLike = None
) -> TopologyCore:
    """Mask-based link failure over a :class:`TopologyCore` (vectorized).

    Returns a new core with a random ``fraction`` of links removed; the
    surviving adjacency keeps its order, and the removed edge set matches
    :func:`fail_random_links` for the same seed.
    """
    mask = link_failure_mask(core.num_edges, fraction, rng)
    return core.without_edges(mask)


def switch_failure_mask(
    num_switches: int, fraction: float, rng: RngLike = None
) -> np.ndarray:
    """Boolean switch-failure mask aligned with a core's label order.

    For the same seed the masked switches are the ones
    :func:`fail_random_switches` would remove.
    """
    return _sample_failure_mask(num_switches, fraction, rng)


def fail_random_switches_core(
    core: TopologyCore, fraction: float, rng: RngLike = None
) -> TopologyCore:
    """Mask-based switch failure over a :class:`TopologyCore`.

    Failed switches disappear along with their links and attached servers,
    matching :func:`fail_random_switches` for the same seed.
    """
    mask = switch_failure_mask(core.num_nodes, fraction, rng)
    return core.without_nodes(mask)


def failed_link_topology(
    topology: Topology, fraction: float, rng: RngLike = None
) -> Topology:
    """Mask-based equivalent of :func:`fail_random_links`.

    Failures are selected on the :class:`TopologyCore` edge array (one rng
    draw over indices -- the identical stream the copy-and-remove path
    consumes) and the surviving core is re-ordered exactly as
    ``nx.Graph.copy`` would (:meth:`TopologyCore.copy_as_graph_copy`), so
    the result is structurally byte-identical to
    ``fail_random_links(topology, fraction, rng)`` for the same seed --
    same edges, same adjacency order, same downstream routing tie-breaks --
    without ever materializing the intermediate ``networkx`` copy.
    """
    core = topology.core()
    mask = link_failure_mask(core.num_edges, fraction, rng)
    name = (
        f"{topology.name}+{fraction:.0%}-link-failures"
        if mask.any()
        else topology.name
    )
    return Topology.from_core(core.without_edges(mask).copy_as_graph_copy(), name=name)


def failed_switch_topology(
    topology: Topology, fraction: float, rng: RngLike = None
) -> Topology:
    """Mask-based equivalent of :func:`fail_random_switches`."""
    core = topology.core()
    mask = switch_failure_mask(core.num_nodes, fraction, rng)
    name = (
        f"{topology.name}+{fraction:.0%}-switch-failures"
        if mask.any()
        else topology.name
    )
    return Topology.from_core(core.without_nodes(mask).copy_as_graph_copy(), name=name)


def throughput_under_link_failures(
    topology: Topology,
    fractions,
    k: int = 8,
    rng: RngLike = None,
) -> List[Tuple[float, float]]:
    """Normalized throughput after failing each fraction of links.

    Returns (fraction, normalized throughput) pairs; the traffic matrix is an
    independently sampled random permutation for each point, as in Fig 8.
    Pairs left disconnected by the failures count as zero throughput.

    Failure selection runs through the mask-based core path
    (:func:`failed_link_topology`) and evaluation through the
    degradation-aware harness
    (:func:`repro.flow.throughput.degraded_throughput`); both are
    seed-for-seed identical to the historical copy-and-remove /
    special-cased implementation, which survives only as the parity pin in
    ``tests/test_failures.py``.
    """
    rand = ensure_rng(rng)
    baseline = topology.num_servers
    results = []
    for fraction in fractions:
        failed = failed_link_topology(topology, fraction, rng=rand)
        outcome = degraded_throughput(failed, k=k, rng=rand, baseline_servers=baseline)
        results.append((fraction, outcome.normalized))
    return results
