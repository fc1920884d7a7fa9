"""The one table of directed link capacities.

Every engine that prices links reads this table: the edge and path LPs
(:mod:`repro.flow.mcf`, :mod:`repro.flow.path_lp`), the analytic screen in
:mod:`repro.flow.throughput`, the steady-state fluid model and the
round-based AIMD engine.  Each switch link carries its capacity in each
direction, so every undirected edge contributes both orientations.

Edges default to capacity ``1.0`` (one line rate); the Clos/leaf-spine
family sets an explicit ``capacity`` edge attribute on trunked links.
Capacities are integer-valued (1, or a trunk's cable count), so sums over
the table are exact whatever their order.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.topologies.base import Topology

DirectedLink = Tuple[Hashable, Hashable]


def link_capacities(topology: Topology, scale: float = 1.0) -> Dict[DirectedLink, float]:
    """Directed link capacities of ``topology``, scaled by ``scale``.

    One walk over ``topology.graph.edges``: each edge yields ``(u, v)`` then
    ``(v, u)``, so the table's order is the LPs' arc (row) order.
    ``scale`` converts units -- the LPs and the fluid model use ``1.0``
    (line rates), the AIMD engine passes ``packets_per_round``.
    """
    capacities: Dict[DirectedLink, float] = {}
    for u, v, capacity in topology.graph.edges.data("capacity", default=1.0):
        value = float(capacity) * scale
        capacities[(u, v)] = value
        capacities[(v, u)] = value
    return capacities
