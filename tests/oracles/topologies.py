"""Topology-level references.

:meth:`repro.topologies.jellyfish.JellyfishTopology.add_switch` keeps the
splice-eligible links in a rank-selectable set instead of rebuilding an
O(E) candidate list per splice.  :func:`add_switch_reference` is the loop it
replaced, pinned draw for draw by ``tests/test_topology_core.py`` and timed
by ``benchmarks/record_topology.py``.

:func:`host_graph_reference` is the combined switch-and-server graph that
:meth:`repro.topologies.base.Topology.server_path_length_cdf` avoids
building.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

import networkx as nx

from repro.topologies.base import Topology, TopologyError
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_integer


def add_switch_reference(
    topology: JellyfishTopology,
    switch: Hashable,
    ports: int,
    servers: int = 0,
    rng: RngLike = None,
) -> None:
    """Historical quadratic splice loop (parity reference; do not modify).

    Rebuilds the full eligible-link list from ``graph.edges`` on every
    iteration.  Kept so the parity suite and the topology benchmarks can
    pin :meth:`add_switch` against the original draw-for-draw.
    """
    require_integer(ports, "ports")
    require_integer(servers, "servers")
    if switch in topology.graph:
        raise TopologyError(f"switch {switch!r} already exists")
    if servers < 0 or servers > ports:
        raise TopologyError("servers must be between 0 and ports")
    rand = ensure_rng(rng)

    graph = topology.graph
    topology._core = None
    graph.add_node(switch)
    topology.ports[switch] = ports
    topology.servers[switch] = servers

    while topology.free_ports(switch) >= 2:
        candidates = [
            (v, w)
            for v, w in graph.edges
            if switch not in (v, w)
            and not graph.has_edge(switch, v)
            and not graph.has_edge(switch, w)
        ]
        if not candidates:
            break
        v, w = candidates[rand.randrange(len(candidates))]
        graph.remove_edge(v, w)
        graph.add_edge(switch, v)
        graph.add_edge(switch, w)
    topology.validate()


def host_graph_reference(topology: Topology) -> Tuple[nx.Graph, List[Tuple]]:
    """The switch graph with every server as a leaf, and the server nodes.

    Servers are ``("server", switch, index)`` tuples in
    :meth:`~repro.topologies.base.Topology.server_list` order, so they never
    collide with switch identifiers.
    """
    combined = topology.graph.copy()
    servers = []
    for switch, index in topology.server_list():
        server = ("server", switch, index)
        combined.add_edge(server, switch)
        servers.append(server)
    return combined, servers
