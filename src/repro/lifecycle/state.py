"""Lifecycle state: the plant topology, the failed sets, and event application.

The *plant* is the as-built deployment -- every switch and cable that
exists, healthy or not.  It only changes on expansion.  The *current*
topology is the plant minus the failed sets: switches that are down take
their servers and cables with them; links that are down disappear while
both endpoints stay.

Event application is **backend-independent**: victims are drawn here, from
the surviving equipment, with a per-event string-seeded generator
(``lifecycle:<seed>:victim:<kind>:<key>``), so the metric backends
(:class:`~repro.lifecycle.metrics.IncrementalMetrics` and the cold-rebuild
reference) observe exactly the same state trajectory and can be compared
float-for-float.  Each applied event yields a small *delta* tuple -- the
touched endpoints -- which is all the incremental backend needs to scope
its re-sweeps; the reference backend ignores it and rebuilds.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

import networkx as nx

from repro.lifecycle.events import (
    EPOCH,
    EXPAND,
    LINK_FAIL,
    LINK_REPAIR,
    SWITCH_FAIL,
    SWITCH_REPAIR,
    LifecycleConfig,
    LifecycleEvent,
)
from repro.topologies.base import Topology

#: Delta kinds handed to metric backends.
LINK_DOWN = "link_down"
LINK_UP = "link_up"
SWITCH_DOWN = "switch_down"
SWITCH_UP = "switch_up"
REBUILD = "rebuild"
NOOP = "noop"


def _node_key(node: Hashable) -> str:
    """Total order over mixed label types (ints, strings, tuples)."""
    return repr(node)


class LifecycleState:
    """Plant + failed sets; applies events and yields deltas.

    The plant's adjacency is mirrored into an engine-owned dict so event
    application never touches ``Topology.core()`` caches; it is rebuilt
    from ``plant.graph`` only on expansion (the one event that mutates the
    plant in place).
    """

    def __init__(self, plant: Topology, config: LifecycleConfig, seed: Optional[int]):
        self.plant = plant
        self.config = config
        self.seed = seed
        self.plant_adjacency: Dict[Hashable, Set[Hashable]] = {}
        self._mirror_plant()
        #: fail-sequence key -> victim pair / switch (None for no-op fails).
        self.failed_links: Dict[int, Optional[Tuple[Hashable, Hashable]]] = {}
        self.failed_switches: Dict[int, Optional[Hashable]] = {}
        self.failed_link_pairs: Set[FrozenSet[Hashable]] = set()
        self.failed_switch_set: Set[Hashable] = set()

    # -- plant mirror ----------------------------------------------------
    def _mirror_plant(self) -> None:
        self.plant_adjacency = {
            node: set(self.plant.graph[node]) for node in self.plant.graph.nodes
        }
        # Canonical plant link list, sorted once per plant revision: victim
        # selection filters this instead of re-sorting ``repr`` keys on
        # every failure event.
        links = []
        for u in self.plant_adjacency:
            key_u = _node_key(u)
            for v in self.plant_adjacency[u]:
                key_v = _node_key(v)
                if key_u < key_v:
                    links.append((key_u, key_v, u, v))
        links.sort()
        self._plant_links = [(u, v) for _, _, u, v in links]
        self._plant_nodes = sorted(self.plant_adjacency, key=_node_key)
        self._plant_server_total = sum(self.plant.servers.values())

    # -- current-state views --------------------------------------------
    def is_alive(self, node: Hashable) -> bool:
        return node not in self.failed_switch_set

    def alive_nodes(self) -> List[Hashable]:
        return [
            node for node in self.plant_adjacency if node not in self.failed_switch_set
        ]

    def link_is_up(self, u: Hashable, v: Hashable) -> bool:
        return (
            u not in self.failed_switch_set
            and v not in self.failed_switch_set
            and frozenset((u, v)) not in self.failed_link_pairs
        )

    def alive_links(self) -> List[Tuple[Hashable, Hashable]]:
        """Surviving inter-switch links, in a deterministic order."""
        failed_switches = self.failed_switch_set
        failed_pairs = self.failed_link_pairs
        if not failed_switches and not failed_pairs:
            return list(self._plant_links)
        return [
            (u, v)
            for u, v in self._plant_links
            if u not in failed_switches
            and v not in failed_switches
            and frozenset((u, v)) not in failed_pairs
        ]

    def current_adjacency(self) -> Dict[Hashable, Set[Hashable]]:
        """Fresh alive-only adjacency (used to seed the metric backends)."""
        return {
            node: {
                neighbor
                for neighbor in self.plant_adjacency[node]
                if self.link_is_up(node, neighbor)
            }
            for node in self.alive_nodes()
        }

    def servers_of(self, node: Hashable) -> int:
        return self.plant.servers.get(node, 0)

    def plant_servers(self) -> int:
        return self._plant_server_total

    def materialize(self, name: Optional[str] = None) -> Topology:
        """The current topology as a fresh :class:`Topology`.

        Nodes and edges are inserted in ``repr`` order, so one *state*
        always materializes to one adjacency layout regardless of the event
        history that led there -- which is what lets the content-hash-keyed
        path tables and epoch memo recognize a revisited state.
        """
        nodes = sorted(self.alive_nodes(), key=_node_key)
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        for u in nodes:
            for v in sorted(self.plant_adjacency[u], key=_node_key):
                if _node_key(u) < _node_key(v) and self.link_is_up(u, v):
                    graph.add_edge(u, v)
        ports = {node: self.plant.ports.get(node, 0) for node in nodes}
        servers = {node: self.plant.servers.get(node, 0) for node in nodes}
        return Topology(
            graph, ports, servers, name=name or f"{self.plant.name}@lifecycle"
        )

    # -- event application ----------------------------------------------
    def _victim_rng(self, kind: str, key: int) -> random.Random:
        return random.Random(f"lifecycle:{self.seed}:victim:{kind}:{key}")

    def apply(self, event: LifecycleEvent) -> Tuple:
        """Apply one event; returns the delta for the metric backends."""
        kind = event.kind
        if kind == EPOCH:
            return (NOOP,)
        if kind == LINK_FAIL:
            links = self.alive_links()
            if not links:
                self.failed_links[event.key] = None
                return (NOOP,)
            u, v = links[self._victim_rng(kind, event.key).randrange(len(links))]
            self.failed_links[event.key] = (u, v)
            self.failed_link_pairs.add(frozenset((u, v)))
            return (LINK_DOWN, u, v)
        if kind == LINK_REPAIR:
            pair = self.failed_links.pop(event.key, None)
            if pair is None:
                return (NOOP,)
            u, v = pair
            self.failed_link_pairs.discard(frozenset((u, v)))
            if u in self.failed_switch_set or v in self.failed_switch_set:
                # The cable is fixed but an endpoint is down; the edge
                # returns with the switch repair.
                return (NOOP,)
            return (LINK_UP, u, v)
        if kind == SWITCH_FAIL:
            nodes = [
                node
                for node in self._plant_nodes
                if node not in self.failed_switch_set
            ]
            if not nodes:
                self.failed_switches[event.key] = None
                return (NOOP,)
            victim = nodes[self._victim_rng(kind, event.key).randrange(len(nodes))]
            up_neighbors = [
                neighbor
                for neighbor in self.plant_adjacency[victim]
                if self.link_is_up(victim, neighbor)
            ]
            self.failed_switch_set.add(victim)
            self.failed_switches[event.key] = victim
            return (SWITCH_DOWN, victim, up_neighbors)
        if kind == SWITCH_REPAIR:
            victim = self.failed_switches.pop(event.key, None)
            if victim is None:
                return (NOOP,)
            self.failed_switch_set.discard(victim)
            up_neighbors = [
                neighbor
                for neighbor in self.plant_adjacency[victim]
                if self.link_is_up(victim, neighbor)
            ]
            return (SWITCH_UP, victim, up_neighbors)
        if kind == EXPAND:
            return self._apply_expansion(event)
        raise ValueError(f"unknown event kind {kind!r}")

    def _apply_expansion(self, event: LifecycleEvent) -> Tuple:
        """Grow the plant by one batch through the incremental procedure.

        Expansion splices random existing cables (Section 6.2), so its
        dirty region is the whole interconnect: the plant mirror is rebuilt
        and the backends receive a ``rebuild`` delta.  A failed link whose
        cable was spliced away no longer exists -- its pending repair
        becomes a no-op.
        """
        expand = getattr(self.plant, "expand", None)
        if expand is None or self.config.expansion_batch <= 0:
            return (NOOP,)
        expand(
            self.config.expansion_batch,
            self.config.expansion_ports,
            self.config.expansion_servers,
            rng=self._victim_rng(EXPAND, event.key),
            prefix="grown",
        )
        self._mirror_plant()
        for key, pair in list(self.failed_links.items()):
            if pair is None:
                continue
            u, v = pair
            if v not in self.plant_adjacency.get(u, ()):  # spliced away
                del self.failed_links[key]
                self.failed_link_pairs.discard(frozenset((u, v)))
        return (REBUILD,)
