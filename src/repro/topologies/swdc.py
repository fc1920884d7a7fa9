"""Small-World Datacenter (SWDC) topologies [Shin, Wong, Sirer -- SoCC 2011].

SWDC arranges nodes on a regular lattice (a ring, a 2D torus or a 3D
hexagonal torus) and adds random "small-world" shortcut links until every
node reaches the target degree (6 in the paper's comparison).  The Jellyfish
paper compares against all three variants at ~484 switches with 1 server per
switch (then 2 servers to create oversubscription), Fig 4.

The lattice supplies the structured neighbours; the remaining ports are
filled with uniform-random shortcuts, avoiding duplicate links, by the same
random step that wires Jellyfish
(:func:`repro.graphs.regular.fill_random_links`, which leaves a stuck port
free instead of splicing).
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.graphs.regular import fill_random_links, graph_from_rows
from repro.topologies.base import Topology, TopologyError
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_integer

RING = "ring"
TORUS_2D = "torus2d"
HEX_TORUS_3D = "hex3d"

_VARIANTS = (RING, TORUS_2D, HEX_TORUS_3D)


def _ring_lattice(num_nodes: int) -> Tuple[list, list]:
    """Simple cycle: each node linked to its two ring neighbours."""
    return list(range(num_nodes)), [
        (node, (node + 1) % num_nodes) for node in range(num_nodes)
    ]


def _torus_2d_lattice(num_nodes: int) -> Tuple[list, list]:
    """2D torus with wraparound; requires a (near-)square node count."""
    side = int(round(math.sqrt(num_nodes)))
    if side * side != num_nodes:
        raise TopologyError(
            f"2D torus requires a perfect-square node count, got {num_nodes}"
        )
    labels = [(x, y) for x in range(side) for y in range(side)]
    edges = []
    for x, y in labels:
        edges.append(((x, y), ((x + 1) % side, y)))
        edges.append(((x, y), (x, (y + 1) % side)))
    return labels, edges


def _hex_torus_3d_lattice(num_nodes: int) -> Tuple[list, list]:
    """3D 'hex' torus: nodes on an L x M x 2 grid with 3 lattice links each.

    The SWDC paper's 3D hexagonal torus gives every node three lattice
    neighbours (so that with three random links the degree is six).  We model
    it as a prism over a 2D torus of dimensions L x M with alternating
    vertical links, which reproduces the degree-3 lattice structure.
    """
    if num_nodes % 2 != 0:
        raise TopologyError("3D hex torus requires an even node count")
    half = num_nodes // 2
    side = int(round(math.sqrt(half)))
    if side * side != half:
        raise TopologyError(
            "3D hex torus requires num_nodes = 2 * s^2 for integer s, "
            f"got {num_nodes}"
        )
    labels = [
        (x, y, layer) for layer in range(2) for x in range(side) for y in range(side)
    ]
    edges = []
    for x in range(side):
        for y in range(side):
            # Each node gets two in-layer links (a hexagonal tiling has
            # alternating link directions) and one inter-layer link.
            for layer in range(2):
                edges.append(((x, y, layer), ((x + 1) % side, y, layer)))
            edges.append(((x, y, 0), (x, y, 1)))
    return labels, edges


_LATTICES = {
    RING: _ring_lattice,
    TORUS_2D: _torus_2d_lattice,
    HEX_TORUS_3D: _hex_torus_3d_lattice,
}


class SmallWorldTopology(Topology):
    """SWDC topology: lattice links plus random shortcuts up to a target degree."""

    def __init__(self, graph, ports, servers, variant: str, name: str):
        super().__init__(graph, ports, servers, name=name)
        self.variant = variant

    @classmethod
    def build(
        cls,
        num_nodes: int,
        variant: str = RING,
        degree: int = 6,
        servers_per_switch: int = 1,
        ports_per_switch: int = None,
        rng: RngLike = None,
    ) -> "SmallWorldTopology":
        """Build an SWDC topology.

        ``degree`` is the total network degree (lattice plus random links);
        ``ports_per_switch`` defaults to ``degree + servers_per_switch``.
        """
        require_integer(num_nodes, "num_nodes")
        require_integer(degree, "degree")
        if variant not in _VARIANTS:
            raise TopologyError(
                f"unknown SWDC variant {variant!r}; expected one of {_VARIANTS}"
            )
        if num_nodes < 4:
            raise TopologyError("SWDC topologies need at least 4 nodes")
        rand = ensure_rng(rng)

        labels, lattice = _LATTICES[variant](num_nodes)
        index_of = {label: i for i, label in enumerate(labels)}
        rows: List[dict] = [{} for _ in labels]
        for a, b in lattice:
            rows[index_of[a]][index_of[b]] = True
            rows[index_of[b]][index_of[a]] = True
        lattice_degree = max(len(row) for row in rows)
        if degree < lattice_degree:
            raise TopologyError(
                f"target degree {degree} is below the lattice degree {lattice_degree}"
            )
        # Shortcuts: the paper's random step on every port the lattice left.
        free = [degree - len(row) for row in rows]
        fill_random_links(rows, free, range(len(rows)), rand)
        graph = graph_from_rows(labels, rows)

        if ports_per_switch is None:
            ports_per_switch = degree + servers_per_switch
        ports = {node: ports_per_switch for node in graph.nodes}
        servers = {node: servers_per_switch for node in graph.nodes}
        return cls(
            graph,
            ports,
            servers,
            variant=variant,
            name=f"swdc-{variant}",
        )

    def set_servers_per_switch(self, servers_per_switch: int) -> None:
        """Re-provision every switch with ``servers_per_switch`` servers.

        Port counts are grown if necessary so the budget stays valid.  (Fig
        4 provisions its 2 servers per switch through :meth:`build`.)
        """
        require_integer(servers_per_switch, "servers_per_switch")
        if servers_per_switch < 0:
            raise TopologyError("servers_per_switch must be non-negative")
        graph = self.edit_graph()
        for node in graph.nodes:
            needed = graph.degree(node) + servers_per_switch
            if self.ports[node] < needed:
                self.ports[node] = needed
            self.servers[node] = servers_per_switch
        self.validate()
