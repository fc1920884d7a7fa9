"""Three-level fat-tree (folded Clos) topology of Al-Fares et al. (SIGCOMM 2008).

A fat-tree built from ``k``-port switches (``k`` even) has ``k`` pods.  Each
pod holds ``k/2`` edge switches and ``k/2`` aggregation switches; there are
``(k/2)^2`` core switches.  Each edge switch hosts ``k/2`` servers, for a
total of ``k^3 / 4`` servers on ``5 k^2 / 4`` switches.  This is the paper's
primary baseline: every Jellyfish comparison uses a Jellyfish built from the
same switching equipment as a fat-tree of some ``k``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import networkx as nx

from repro.topologies.base import Topology, TopologyError
from repro.utils.validation import require_integer

CORE = "core"
AGGREGATION = "agg"
EDGE = "edge"


def fattree_num_servers(k: int) -> int:
    """Servers supported by a full-bisection fat-tree of k-port switches."""
    return k**3 // 4


def fattree_num_switches(k: int) -> int:
    """Switches used by a fat-tree of k-port switches (edge + agg + core)."""
    return 5 * k**2 // 4


def fattree_equipment(k: int, server_factor: float = 1.0) -> Tuple[int, int, int]:
    """``(switches, ports, servers)`` for a Jellyfish on a k-ary fat-tree's equipment.

    The switch pool is the fat-tree's: ``5 k^2 / 4`` switches of ``k`` ports.
    The Jellyfish hosts ``server_factor`` times the fat-tree's ``k^3 / 4``
    servers, rounded to the nearest integer.  The tuple is in the argument
    order of :meth:`JellyfishTopology.from_equipment`.
    """
    servers = int(round(fattree_num_servers(k) * server_factor))
    return fattree_num_switches(k), k, servers


class FatTreeTopology(Topology):
    """k-ary fat-tree with node identifiers carrying their layer and position.

    Node identifiers:

    * core switches: ``("core", i, j)`` for i, j in [0, k/2)
    * aggregation switches: ``("agg", pod, i)``
    * edge switches: ``("edge", pod, i)``
    """

    def __init__(self, graph, ports, servers, k: int, name: str = "fat-tree"):
        super().__init__(graph, ports, servers, name=name)
        self.k = k

    @classmethod
    def build(cls, k: int, name: str = "fat-tree") -> "FatTreeTopology":
        """Build the standard 3-level fat-tree from ``k``-port switches."""
        require_integer(k, "k")
        if k < 2 or k % 2 != 0:
            raise TopologyError(f"fat-tree requires an even port count >= 2, got {k}")
        half = k // 2
        graph = nx.Graph()
        ports: Dict[Tuple, int] = {}
        servers: Dict[Tuple, int] = {}

        core_switches = [(CORE, i, j) for i in range(half) for j in range(half)]
        for switch in core_switches:
            graph.add_node(switch)
            ports[switch] = k
            servers[switch] = 0

        for pod in range(k):
            for i in range(half):
                agg = (AGGREGATION, pod, i)
                edge = (EDGE, pod, i)
                graph.add_node(agg)
                graph.add_node(edge)
                ports[agg] = k
                ports[edge] = k
                servers[agg] = 0
                servers[edge] = half

            # Edge <-> aggregation: full bipartite mesh within the pod.
            for i in range(half):
                for j in range(half):
                    graph.add_edge((EDGE, pod, i), (AGGREGATION, pod, j))

            # Aggregation <-> core: aggregation switch i in each pod connects
            # to core switches (i, 0) ... (i, k/2 - 1).
            for i in range(half):
                for j in range(half):
                    graph.add_edge((AGGREGATION, pod, i), (CORE, i, j))

        return cls(graph, ports, servers, k=k, name=name)

    # ------------------------------------------------------------------ #
    # Layer helpers
    # ------------------------------------------------------------------ #
    def layer(self, switch) -> str:
        """Return ``"core"``, ``"agg"`` or ``"edge"`` for a switch identifier."""
        return switch[0]

    def pod_of(self, switch) -> int:
        """Pod index of an edge or aggregation switch."""
        if self.layer(switch) == CORE:
            raise ValueError("core switches do not belong to a pod")
        return switch[1]

    def edge_switches(self):
        return [node for node in self.graph.nodes if node[0] == EDGE]

    def aggregation_switches(self):
        return [node for node in self.graph.nodes if node[0] == AGGREGATION]

    def core_switches(self):
        return [node for node in self.graph.nodes if node[0] == CORE]

    def bisection_bandwidth_edges(self) -> float:
        """Worst-case balanced-cut capacity of the full fat-tree.

        A full-bisection fat-tree supports all servers at line rate, so the
        bisection equals half of the server count (in server line-rate
        units): ``k^3 / 8`` links cross the bisection.
        """
        return self.k**3 / 8.0

    def normalized_bisection_bandwidth(self) -> float:
        """Bisection normalized by the servers in one partition (always 1.0)."""
        return self.bisection_bandwidth_edges() / (self.num_servers / 2.0)
