"""Degradation semantics for partitioned topologies.

Failures can disconnect a topology, and the compute core used to handle
that ad hoc: fig08 special-cased disconnected graphs, the LP raised on
unreachable pairs, and a failure pattern that removed every server-hosting
switch produced an *empty* traffic matrix that downstream code happily
reported as fully served.  This module defines the one explicit contract
every kernel now follows:

* **Unreachable pairs carry zero throughput.**  A demand whose endpoints
  sit in different connected components contributes 0.0 to every
  throughput statistic; reachable demands are evaluated normally within
  their components.
* **Nothing raises on a partitioned graph.**  Routing skips unreachable
  pairs (``on_unreachable="skip"``), max-min accepts unrouted flows, the
  AIMD engine reports unreachable connections at 0.0, and the LP harness
  filters demands before solving.
* **Degradation is reported, not inferred.**  Every degradation-aware
  evaluation returns a structured :class:`DegradationReport` -- component
  sizes, stranded servers, unreachable demand counts -- so "the number
  went down" and "the network fell apart" are distinguishable.

The report is cheap (one BFS sweep over the CSR view) and is the unit the
lifecycle engine maintains *incrementally* between failure/repair events
(:mod:`repro.lifecycle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.graphs.properties import csr_component_labels


def availability(component_servers: Iterable[int], total_servers: int) -> float:
    """Fraction of ``total_servers``' pairs that can still exchange traffic.

    ``sum(C(s_c, 2)) / C(total_servers, 2)`` over the components' server
    counts ``s_c``.  With the healthy plant's server count as the total,
    servers lost with their failed switches depress availability exactly
    like stranded ones.  Fewer than two servers means no pairs were ever
    promised: availability 1.0.
    """
    if total_servers < 2:
        return 1.0
    pairs = sum(count * (count - 1) // 2 for count in component_servers)
    return pairs / (total_servers * (total_servers - 1) // 2)


@dataclass(frozen=True)
class DegradationReport:
    """Structural damage summary for one (possibly partitioned) topology.

    ``component_sizes`` / ``component_servers`` are aligned, sorted by
    server count (then switch count) descending, so index 0 is the
    *principal* component -- the one that keeps serving the most traffic.
    ``stranded_servers`` counts servers outside the principal component;
    when ``baseline_servers`` is set (the healthy plant's server count),
    servers lost outright with their failed switches are stranded too.
    ``demand_pairs`` / ``unreachable_pairs`` describe the evaluated traffic
    matrix (both 0 when no traffic was supplied).
    """

    num_switches: int
    num_servers: int
    component_sizes: Tuple[int, ...]
    component_servers: Tuple[int, ...]
    stranded_servers: int
    demand_pairs: int = 0
    unreachable_pairs: int = 0
    baseline_servers: Optional[int] = None

    @property
    def num_components(self) -> int:
        return len(self.component_sizes)

    @property
    def connected(self) -> bool:
        """True when no demand can be stranded by partition or server loss."""
        return (
            self.num_components <= 1
            and self.stranded_servers == 0
            and self.unreachable_pairs == 0
        )

    @property
    def server_pair_connectivity(self) -> float:
        """Fraction of server pairs still connected (:func:`availability`).

        The denominator is the healthy plant's server-pair count when
        ``baseline_servers`` is set, so servers removed along with failed
        switches count as disconnected; otherwise the current population.
        """
        total = (
            self.baseline_servers
            if self.baseline_servers is not None
            else self.num_servers
        )
        return availability(self.component_servers, total)

    def as_dict(self) -> dict:
        return {
            "num_switches": self.num_switches,
            "num_servers": self.num_servers,
            "num_components": self.num_components,
            "component_sizes": list(self.component_sizes),
            "component_servers": list(self.component_servers),
            "stranded_servers": self.stranded_servers,
            "demand_pairs": self.demand_pairs,
            "unreachable_pairs": self.unreachable_pairs,
            "baseline_servers": self.baseline_servers,
            "server_pair_connectivity": self.server_pair_connectivity,
        }


def component_labels_by_node(topology) -> Dict[Hashable, int]:
    """Connected-component label for every switch of ``topology``."""
    csr = topology.csr()
    labels = csr_component_labels(csr)
    return {node: int(labels[i]) for i, node in enumerate(csr.nodes)}


def _component_table(
    topology,
) -> Tuple[Dict[Hashable, int], List[int], List[int]]:
    """Per-node labels plus per-component switch and server counts."""
    csr = topology.csr()
    labels = csr_component_labels(csr)
    count = int(labels.max()) + 1 if csr.num_nodes else 0
    switch_counts = [0] * count
    server_counts = [0] * count
    by_node: Dict[Hashable, int] = {}
    servers = getattr(topology, "servers", {}) or {}
    for index, node in enumerate(csr.nodes):
        label = int(labels[index])
        by_node[node] = label
        switch_counts[label] += 1
        server_counts[label] += int(servers.get(node, 0))
    return by_node, switch_counts, server_counts


def degradation_report(
    topology,
    traffic=None,
    baseline_servers: Optional[int] = None,
) -> DegradationReport:
    """Build a :class:`DegradationReport` for ``topology``.

    ``traffic`` (a :class:`~repro.traffic.matrices.TrafficMatrix`) is
    optional; when given, its demands are classified as reachable or
    unreachable under the component labeling.  ``baseline_servers`` is the
    healthy plant's server count, letting the report account for servers
    removed along with failed switches.
    """
    by_node, switch_counts, server_counts = _component_table(topology)
    order = sorted(
        range(len(switch_counts)),
        key=lambda label: (-server_counts[label], -switch_counts[label], label),
    )
    sizes = tuple(switch_counts[label] for label in order)
    comp_servers = tuple(server_counts[label] for label in order)
    num_servers = sum(comp_servers)
    principal = comp_servers[0] if comp_servers else 0
    stranded = num_servers - principal
    if baseline_servers is not None:
        stranded += max(0, baseline_servers - num_servers)

    demand_pairs = 0
    unreachable = 0
    if traffic is not None:
        for demand in traffic:
            demand_pairs += 1
            src = demand.source_switch
            dst = demand.destination_switch
            if src != dst and by_node.get(src) != by_node.get(dst):
                unreachable += 1

    return DegradationReport(
        num_switches=sum(sizes),
        num_servers=num_servers,
        component_sizes=sizes,
        component_servers=comp_servers,
        stranded_servers=stranded,
        demand_pairs=demand_pairs,
        unreachable_pairs=unreachable,
        baseline_servers=baseline_servers,
    )


def split_reachable_demands(topology, traffic) -> Tuple[list, list]:
    """Partition a traffic matrix's demands into (reachable, unreachable).

    A demand is reachable when both endpoint switches sit in the same
    connected component (same-switch demands always are).
    """
    by_node = component_labels_by_node(topology)
    reachable = []
    unreachable = []
    for demand in traffic:
        src = demand.source_switch
        dst = demand.destination_switch
        if src == dst or by_node.get(src) == by_node.get(dst):
            reachable.append(demand)
        else:
            unreachable.append(demand)
    return reachable, unreachable
