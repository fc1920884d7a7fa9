"""Common topology abstraction.

A :class:`Topology` is a switch-level graph plus, for every switch, the
number of ports it has and the number of servers attached to it.  All of the
evaluation machinery (traffic matrices, LP throughput, routing, the fluid
simulator, cabling) operates on this abstraction, so Jellyfish, fat-trees,
small-world data centers and Clos networks are interchangeable everywhere.

Internally a topology is backed by either a live ``nx.Graph`` (the
historical representation, still the construction path for the structured
baselines) or an array-native :class:`~repro.topologies.core.TopologyCore`
(the path the random-graph constructors use).
``Topology.graph`` stays the public API: core-backed topologies materialize
the graph lazily on first access -- with adjacency insertion order
bit-identical to the historical construction, and the core's CSR view
adopted by the new graph so kernels never rebuild adjacency.  Metric
helpers (:meth:`Topology.csr` and everything built on it) work directly on
the CSR bridge, so path statistics never require the ``networkx`` view at
all.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import networkx as nx

from repro.graphs.csr import CSRGraph, _graph_fingerprint, csr_graph
from repro.graphs.properties import (
    average_path_length_csr,
    csr_is_connected,
    diameter_csr,
    is_connected,
    server_path_length_cdf_csr,
)
from repro.topologies.core import TopologyCore, TopologyError

__all__ = ["EquipmentSummary", "Topology", "TopologyError"]


@dataclass(frozen=True)
class EquipmentSummary:
    """Switching equipment used by a topology (the paper's cost unit is ports)."""

    num_switches: int
    total_ports: int
    num_servers: int
    num_links: int

    def as_dict(self) -> dict:
        return {
            "num_switches": self.num_switches,
            "total_ports": self.total_ports,
            "num_servers": self.num_servers,
            "num_links": self.num_links,
        }


class Topology:
    """Switch-level topology with per-switch port budgets and attached servers.

    Parameters
    ----------
    graph:
        Undirected switch interconnection graph.  Node identifiers may be any
        hashable value.
    ports:
        Mapping from switch to its total port count.  Every switch in
        ``graph`` must appear.
    servers:
        Mapping from switch to the number of directly attached servers.
        Switches may be omitted (interpreted as zero servers).
    name:
        Human-readable topology name used in experiment reports.

    Use :meth:`from_core` to construct array-natively (no ``nx.Graph`` is
    built until something touches :attr:`graph`).
    """

    def __init__(
        self,
        graph: nx.Graph,
        ports: Dict[Hashable, int],
        servers: Optional[Dict[Hashable, int]] = None,
        name: str = "topology",
    ) -> None:
        self.graph = graph
        self.ports = dict(ports)
        self.servers = {node: 0 for node in graph.nodes}
        if servers:
            for node, count in servers.items():
                if node not in self.servers:
                    raise TopologyError(f"server host {node!r} is not a switch")
                if count < 0:
                    raise TopologyError(f"negative server count on {node!r}")
                self.servers[node] = count
        self.name = name
        self.validate()

    # ------------------------------------------------------------------ #
    # Array-native backing
    # ------------------------------------------------------------------ #
    @classmethod
    def from_core(cls, core: TopologyCore, name: str = "topology") -> "Topology":
        """Wrap a :class:`TopologyCore` without materializing a graph.

        The public dict attributes (``ports``/``servers``) are populated
        from the core's vectors; :attr:`graph` materializes lazily on first
        access.  The core is validated once, vectorized.
        """
        topology = cls.__new__(cls)
        topology._graph = None
        topology._core = core
        topology._core_fingerprint = None
        topology.ports = dict(zip(core.labels, core.ports.tolist()))
        topology.servers = dict(zip(core.labels, core.servers.tolist()))
        topology.name = name
        core.validate()
        return topology

    @property
    def graph(self) -> nx.Graph:
        if self._graph is None:
            self._graph = self._core.to_networkx()
            # The freshly materialized graph matches the core exactly;
            # recording its fingerprint keeps core() from rebuilding.
            self._core_fingerprint = _graph_fingerprint(self._graph)
        return self._graph

    @graph.setter
    def graph(self, value: nx.Graph) -> None:
        self._graph = value
        self._core = None
        self._core_fingerprint = None

    @property
    def has_materialized_graph(self) -> bool:
        """True once the ``networkx`` view exists (False for fresh cores)."""
        return self._graph is not None

    def core(self) -> TopologyCore:
        """The array-native core describing the current structure.

        For core-backed topologies this is the backing object.  For
        graph-backed topologies a core is derived from the live graph and
        cached, revalidated against the graph's structural fingerprint so
        in-place mutations (failure injection, expansion) are detected and
        trigger a rebuild rather than returning stale arrays.
        """
        if self._graph is None and self._core is not None:
            return self._core
        fingerprint = _graph_fingerprint(self.graph)
        if self._core is not None and self._core_fingerprint == fingerprint:
            return self._core
        self._core = TopologyCore.from_graph(self.graph, self.ports, self.servers)
        self._core_fingerprint = fingerprint
        return self._core

    def csr(self) -> CSRGraph:
        """CSR view of the switch graph (array bridge; no graph required).

        Core-backed topologies get the core's view; materialized topologies
        go through the fingerprint-revalidated per-graph cache, which the
        core's view seeds at materialization time.
        """
        if self._graph is None and self._core is not None:
            return self._core.csr()
        return csr_graph(self.graph)

    # ------------------------------------------------------------------ #
    # Invariants and accounting
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check that every switch respects its port budget."""
        if self._graph is None and self._core is not None:
            self._core.validate()
            return
        for node in self.graph.nodes:
            if node not in self.ports:
                raise TopologyError(f"switch {node!r} has no port count")
            used = self.graph.degree(node) + self.servers.get(node, 0)
            if used > self.ports[node]:
                raise TopologyError(
                    f"switch {node!r} uses {used} ports but only has "
                    f"{self.ports[node]}"
                )
        for node in self.ports:
            if node not in self.graph.nodes:
                raise TopologyError(f"port count given for unknown switch {node!r}")

    def free_ports(self, node: Hashable) -> int:
        """Unused ports on ``node`` (ports minus network links minus servers)."""
        if self._graph is None and self._core is not None:
            degree = len(self._core.rows[self._core.index_of[node]])
        else:
            degree = self.graph.degree(node)
        return self.ports[node] - degree - self.servers.get(node, 0)

    @property
    def num_switches(self) -> int:
        if self._graph is None and self._core is not None:
            return self._core.num_nodes
        return self.graph.number_of_nodes()

    @property
    def num_links(self) -> int:
        if self._graph is None and self._core is not None:
            return self._core.num_edges
        return self.graph.number_of_edges()

    @property
    def num_servers(self) -> int:
        return sum(self.servers.values())

    @property
    def total_ports(self) -> int:
        return sum(self.ports.values())

    def content_hash(self) -> str:
        """Canonical structural hash (see ``TopologyCore.content_hash``)."""
        return self.core().content_hash

    def equipment(self) -> EquipmentSummary:
        """Summary of the switching equipment this topology consumes."""
        return EquipmentSummary(
            num_switches=self.num_switches,
            total_ports=self.total_ports,
            num_servers=self.num_servers,
            num_links=self.num_links,
        )

    def server_hosts(self) -> List[Hashable]:
        """Switches that host at least one server."""
        return [node for node, count in self.servers.items() if count > 0]

    def server_list(self) -> List[Tuple[Hashable, int]]:
        """All servers as (host switch, index-on-switch) pairs."""
        return [
            (node, index)
            for node, count in sorted(self.servers.items(), key=lambda kv: str(kv[0]))
            for index in range(count)
        ]

    # ------------------------------------------------------------------ #
    # Derived graphs and metrics
    # ------------------------------------------------------------------ #
    def host_graph(self) -> nx.Graph:
        """Graph containing both switches and servers (servers as leaf nodes).

        Server nodes are tuples ``("server", switch, index)`` so they never
        collide with switch identifiers.
        """
        combined = self.graph.copy()
        for switch, index in self.server_list():
            server = ("server", switch, index)
            combined.add_edge(server, switch)
        return combined

    def server_nodes(self) -> List[Tuple]:
        """Server node identifiers as used by :meth:`host_graph`."""
        return [("server", switch, index) for switch, index in self.server_list()]

    def is_connected(self) -> bool:
        if self._graph is None and self._core is not None:
            return csr_is_connected(self.csr())
        return is_connected(self.graph)

    def switch_average_path_length(self) -> float:
        return average_path_length_csr(self.csr())

    def switch_diameter(self) -> int:
        return diameter_csr(self.csr())

    def server_path_length_cdf(self) -> Dict[int, float]:
        """CDF of server-to-server path lengths (Fig 1(c)).

        Computed at the switch level (weighting each switch pair by its
        server pairs) instead of BFS-ing the combined host graph; the
        resulting fractions are bit-identical to the historical host-graph
        path.
        """
        csr = self.csr()
        counts = [self.servers.get(node, 0) for node in csr.nodes]
        return server_path_length_cdf_csr(csr, counts)

    # ------------------------------------------------------------------ #
    # Mutation helpers
    # ------------------------------------------------------------------ #
    def copy(self) -> "Topology":
        """Deep copy (graph or core, ports and servers are all copied).

        Core-backed copies reorder adjacency exactly like ``nx.Graph.copy``
        (see :meth:`TopologyCore.copy_as_graph_copy`), so evaluation on a
        copy tie-breaks identically whichever backing the original had.
        """
        clone = _copy.copy(self)
        if self._graph is None and self._core is not None:
            clone._core = self._core.copy_as_graph_copy()
        else:
            clone.graph = self.graph.copy()
        clone.ports = dict(self.ports)
        clone.servers = dict(self.servers)
        return clone

    def edit_graph(self) -> nx.Graph:
        """The graph, for an in-place change: drops the core it invalidates.

        Every change to a topology goes through here, so :meth:`core`
        rebuilds from the changed graph, ports and servers.
        """
        graph = self.graph
        self._core = None
        return graph

    def remove_links(self, links: Iterable[Tuple[Hashable, Hashable]]) -> None:
        """Remove the given switch-to-switch links (used by failure injection)."""
        graph = self.edit_graph()
        for u, v in links:
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)

    def remove_switches(self, switches: Iterable[Hashable]) -> None:
        """Remove switches with their links and attached servers."""
        graph = self.edit_graph()
        for switch in switches:
            graph.remove_node(switch)
            self.ports.pop(switch, None)
            self.servers.pop(switch, None)

    def attach_servers(self, switch: Hashable, count: int) -> None:
        """Attach ``count`` additional servers to ``switch`` (port budget permitting)."""
        if count < 0:
            raise TopologyError("count must be non-negative")
        if self.free_ports(switch) < count:
            raise TopologyError(
                f"switch {switch!r} has only {self.free_ports(switch)} free ports, "
                f"cannot attach {count} servers"
            )
        self.edit_graph()
        self.servers[switch] = self.servers.get(switch, 0) + count

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"<{type(self).__name__} {self.name!r}: {self.num_switches} switches, "
            f"{self.num_servers} servers, {self.num_links} links>"
        )
