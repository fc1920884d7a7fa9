"""Shared link-capacity tables for the simulators.

Both the steady-state fluid model and the round-based AIMD engine need the
same thing before they can run: a directed-link -> capacity map for the
topology under test.  Historically each simulator carried a private copy of
the same helper, walking ``topology.graph.edges(data=True)`` per call.  This
module is the single implementation: it reads the array-native
:class:`~repro.topologies.core.TopologyCore` edge arrays (no ``networkx``
walk, and for core-backed topologies no graph materialization at all) and
memoizes the resulting table in a small content-hash-keyed LRU, so repeated
simulations over one topology -- the fig10/fig12 trial loops, the dynamics
sweeps' per-seed runs -- build the map once.

Explicit per-edge ``capacity`` attributes (only the Clos/leaf-spine family
sets them) are honored: they can only exist on a materialized graph, are
collected in one pass, and participate in the cache key so structurally
identical topologies with different capacity annotations never share an
entry.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple
from weakref import WeakKeyDictionary

import networkx as nx

from repro.graphs.csr import _graph_fingerprint
from repro.memo import Memo
from repro.topologies.base import Topology

DirectedLink = Tuple[Hashable, Hashable]

#: Content-hash-keyed LRU of capacity tables (same discipline as the shared
#: path tables in :mod:`repro.routing.paths`).
_CAPACITY_CACHE = Memo("simulation.capacities", max_entries=16)

#: Per-graph memo of explicit ``capacity`` edge attributes, revalidated
#: against the structural fingerprint so cache hits skip the O(E) edge walk.
_EXPLICIT_CACHE: "WeakKeyDictionary[nx.Graph, tuple]" = WeakKeyDictionary()


def _explicit_capacities(graph: nx.Graph) -> tuple:
    """Edges carrying an explicit ``capacity`` attribute, as a tuple.

    Memoized per graph object and revalidated against the same structural
    fingerprint the CSR cache uses, so repeated calls on an unchanged graph
    are O(1) instead of re-walking every edge.  Like that fingerprint, the
    check is structural: an in-place edit of the ``capacity`` attribute
    alone (which nothing in this codebase does -- capacities are set at
    construction) is not detected.
    """
    fingerprint = _graph_fingerprint(graph)
    cached = _EXPLICIT_CACHE.get(graph)
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    explicit = tuple(
        (u, v, float(cap))
        for u, v, cap in graph.edges.data("capacity")
        if cap is not None
    )
    _EXPLICIT_CACHE[graph] = (fingerprint, explicit)
    return explicit


def link_capacities(topology: Topology, scale: float = 1.0) -> Dict[DirectedLink, float]:
    """Directed link capacities of ``topology``, scaled by ``scale``.

    Every undirected edge contributes both orientations.  Edges default to
    capacity ``1.0``; explicit ``capacity`` edge attributes (leaf-spine
    trunks) override it.  ``scale`` converts units -- the fluid model uses
    ``1.0`` (line rates), the AIMD engine passes ``packets_per_round``.

    The returned dict is shared cache state: callers must treat it as
    read-only (copy before mutating, as the MPTCP tiered allocator does).
    """
    explicit: Tuple[Tuple[Hashable, Hashable, float], ...] = ()
    if topology.has_materialized_graph:
        explicit = _explicit_capacities(topology.graph)
    key = (topology.content_hash(), float(scale), explicit)
    cached = _CAPACITY_CACHE.get(key)
    if cached is not None:
        return cached

    core = topology.core()
    labels = core.labels
    capacities: Dict[DirectedLink, float] = {}
    # edge_array order follows nx.Graph.edges iteration of the equivalent
    # graph, so the table's iteration order matches the historical per-call
    # edge walk.
    for u_index, v_index in core.edge_array().tolist():
        u, v = labels[u_index], labels[v_index]
        capacities[(u, v)] = scale
        capacities[(v, u)] = scale
    for u, v, cap in explicit:
        value = cap * scale
        capacities[(u, v)] = value
        capacities[(v, u)] = value
    return _CAPACITY_CACHE.put(key, capacities)
