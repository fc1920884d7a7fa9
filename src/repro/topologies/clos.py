"""Two-stage Clos (leaf-spine) topology.

The LEGUP comparison (paper Section 4.2, Fig 7) upgrades a Clos network
under a budget.  This module provides the rigid Clos structure that the
LEGUP-like planner in :mod:`repro.expansion.legup` starts from and expands:
``num_leaves`` leaf (ToR) switches, each connected to every spine switch by
``links_per_pair`` parallel cables, with servers only on the leaves.
"""

from __future__ import annotations

from typing import Dict, Tuple

import networkx as nx

from repro.topologies.base import Topology, TopologyError
from repro.utils.validation import require_integer

LEAF = "leaf"
SPINE = "spine"


class LeafSpineTopology(Topology):
    """Leaf-spine Clos network with uniform leaf-to-spine connectivity."""

    def __init__(self, graph, ports, servers, links_per_pair: int, name: str):
        super().__init__(graph, ports, servers, name=name)
        self.links_per_pair = links_per_pair

    @classmethod
    def build(
        cls,
        num_leaves: int,
        num_spines: int,
        servers_per_leaf: int,
        leaf_ports: int,
        spine_ports: int,
        links_per_pair: int = 1,
        name: str = "leaf-spine",
    ) -> "LeafSpineTopology":
        """Build a leaf-spine network.

        Every leaf connects to every spine.  ``links_per_pair`` > 1 is modeled
        as a single link of that capacity (the capacity is stored as the edge
        attribute ``capacity`` consumed by the flow machinery).
        """
        for value, label in [
            (num_leaves, "num_leaves"),
            (num_spines, "num_spines"),
            (servers_per_leaf, "servers_per_leaf"),
            (leaf_ports, "leaf_ports"),
            (spine_ports, "spine_ports"),
            (links_per_pair, "links_per_pair"),
        ]:
            require_integer(value, label)
            if value < 0:
                raise TopologyError(f"{label} must be non-negative")
        if num_leaves == 0 or num_spines == 0:
            raise TopologyError("leaf-spine needs at least one leaf and one spine")
        if servers_per_leaf + num_spines * links_per_pair > leaf_ports:
            raise TopologyError(
                "leaf ports cannot host the requested servers and uplinks"
            )
        if num_leaves * links_per_pair > spine_ports:
            raise TopologyError("spine ports cannot host the requested downlinks")

        graph = nx.Graph()
        ports: Dict[Tuple, int] = {}
        servers: Dict[Tuple, int] = {}
        for leaf in range(num_leaves):
            node = (LEAF, leaf)
            graph.add_node(node)
            ports[node] = leaf_ports
            servers[node] = servers_per_leaf
        for spine in range(num_spines):
            node = (SPINE, spine)
            graph.add_node(node)
            ports[node] = spine_ports
            servers[node] = 0
        for leaf in range(num_leaves):
            for spine in range(num_spines):
                graph.add_edge(
                    (LEAF, leaf), (SPINE, spine), capacity=float(links_per_pair)
                )
        topo = cls(graph, ports, servers, links_per_pair=links_per_pair, name=name)
        return topo

    def validate(self) -> None:
        """Port budget check accounting for parallel links (edge capacities)."""
        for node in self.graph.nodes:
            if node not in self.ports:
                raise TopologyError(f"switch {node!r} has no port count")
            link_ports = sum(
                int(data.get("capacity", 1.0))
                for _, _, data in self.graph.edges(node, data=True)
            )
            used = link_ports + self.servers.get(node, 0)
            if used > self.ports[node]:
                raise TopologyError(
                    f"switch {node!r} uses {used} ports but only has "
                    f"{self.ports[node]}"
                )

    def bisection_bandwidth_edges(self) -> float:
        """Bisection of a leaf-spine: half of the total leaf uplink capacity.

        Splitting the leaves into two equal halves cuts half of all
        leaf-to-spine capacity, which is the worst balanced cut for a
        non-blocking Clos.
        """
        total_uplink = sum(
            data.get("capacity", 1.0) for _, _, data in self.graph.edges(data=True)
        )
        return total_uplink / 2.0
