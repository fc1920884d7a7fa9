"""Jellyfish topology: a random regular graph among top-of-rack switches.

Implements the construction of Section 3 (``RRG(N, k, r)``), the incremental
expansion procedures of Section 4.2 (adding a rack with servers, adding a
bare switch to boost capacity) and heterogeneous expansion with switches of
different port counts.

Construction is array-native.  :func:`rrg_core`, the one build of
``RRG(N, k, r)`` behind :meth:`JellyfishTopology.build` and the ensemble
generators, checks the port budget (:func:`rrg_budget`, which the
degree-diameter benchmark reuses) and wraps the random-graph constructors'
index-space adjacency rows in a :class:`~repro.topologies.core.TopologyCore`.
The ``networkx`` view the rest of the public API exposes is materialized
lazily (bit-identical to the historical eager construction, including
adjacency insertion order).
Incremental expansion maintains the set of splice-eligible links in a
rank-selectable structure instead of rebuilding an O(E) candidate list per
splice; the parity suite in ``tests/test_topology_core.py`` pins it draw for
draw against the historical quadratic loop (``tests/oracles/topologies.py``).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.graphs.regular import random_graph_with_degree_budget_rows, regular_rows
from repro.topologies.base import Topology, TopologyError
from repro.topologies.core import TopologyCore
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_integer


class _SpliceCandidateSet:
    """Splice-eligible links for :meth:`JellyfishTopology.add_switch`.

    Holds the edge list captured when the new switch joins (every edge is
    initially eligible: the switch has no links yet) and supports the two
    operations the splice loop needs: uniform selection by rank over the
    surviving candidates (Fenwick-tree prefix sums, O(log E)) and removal of
    every candidate incident to a node that just became the new switch's
    neighbor (amortized O(degree log E)).  Candidate order is the captured
    ``graph.edges`` order, and removals preserve the relative order of
    survivors -- exactly the list the historical implementation re-filtered
    from scratch on every iteration, so ``randrange`` draws select the same
    edges.
    """

    __slots__ = ("_edges", "_alive", "_live", "_tree", "_size", "_step", "_incident")

    def __init__(self, edges: Sequence[Tuple[Hashable, Hashable]]) -> None:
        self._edges = list(edges)
        size = len(self._edges)
        self._size = size
        self._live = size
        self._alive = [True] * size
        # Fenwick tree initialized to all-ones in O(E).
        tree = [0] * (size + 1)
        for i in range(1, size + 1):
            tree[i] += 1
            parent = i + (i & -i)
            if parent <= size:
                tree[parent] += tree[i]
        self._tree = tree
        step = 1
        while step * 2 <= size:
            step *= 2
        self._step = step
        incident: Dict[Hashable, List[int]] = {}
        for index, (u, v) in enumerate(self._edges):
            incident.setdefault(u, []).append(index)
            incident.setdefault(v, []).append(index)
        self._incident = incident

    def __len__(self) -> int:
        return self._live

    def select(self, rank: int) -> Tuple[Hashable, Hashable]:
        """The ``rank``-th surviving candidate (0-based, candidate order)."""
        target = rank + 1
        position = 0
        step = self._step
        tree = self._tree
        while step:
            probe = position + step
            if probe <= self._size and tree[probe] < target:
                position = probe
                target -= tree[probe]
            step >>= 1
        return self._edges[position]

    def remove_incident_to(self, node: Hashable) -> None:
        """Drop every surviving candidate with ``node`` as an endpoint."""
        tree = self._tree
        size = self._size
        for index in self._incident.get(node, ()):
            if self._alive[index]:
                self._alive[index] = False
                self._live -= 1
                position = index + 1
                while position <= size:
                    tree[position] -= 1
                    position += position & -position


def rrg_budget(
    num_switches: int,
    ports_per_switch: int,
    network_degree: int,
    servers_per_switch: Optional[int] = None,
) -> Tuple[int, int]:
    """Check the port budget of ``RRG(N, k, r)``.

    Returns ``(servers_per_switch, degree)``: servers default to
    ``k - r``, and the construction degree is ``r`` less one when ``N * r``
    is odd, since the exact regular graph does not exist -- the paper's
    remark that "only a single unmatched port might remain".
    """
    require_integer(num_switches, "num_switches")
    require_integer(ports_per_switch, "ports_per_switch")
    require_integer(network_degree, "network_degree")
    if network_degree > ports_per_switch:
        raise TopologyError(
            "network_degree cannot exceed ports_per_switch "
            f"({network_degree} > {ports_per_switch})"
        )
    if servers_per_switch is None:
        servers_per_switch = ports_per_switch - network_degree
    if servers_per_switch < 0:
        raise TopologyError("servers_per_switch must be non-negative")
    if network_degree + servers_per_switch > ports_per_switch:
        raise TopologyError(
            "network_degree + servers_per_switch exceeds ports_per_switch"
        )
    return servers_per_switch, network_degree - (num_switches * network_degree) % 2


def rrg_core(
    num_switches: int,
    ports_per_switch: int,
    network_degree: int,
    rng: RngLike = None,
    servers_per_switch: Optional[int] = None,
    method: str = "sequential",
) -> TopologyCore:
    """Build ``RRG(N, k, r)`` as an array-native core.

    The one RRG build behind :meth:`JellyfishTopology.build` and the
    ensemble generators: :func:`rrg_budget`'s checks, then
    :func:`repro.graphs.regular.regular_rows` for ``method``.
    """
    servers_per_switch, degree = rrg_budget(
        num_switches, ports_per_switch, network_degree, servers_per_switch
    )
    return TopologyCore(
        range(num_switches),
        regular_rows(num_switches, degree, rng, method=method),
        [ports_per_switch] * num_switches,
        [servers_per_switch] * num_switches,
    )


class JellyfishTopology(Topology):
    """A Jellyfish data-center network (random regular graph of ToR switches).

    Use :meth:`build` to construct ``RRG(N, k, r)`` from scratch, or
    :meth:`from_equipment` to build a Jellyfish using the same switching
    equipment as a fat-tree (the paper's standard comparison setup).
    """

    def __init__(
        self,
        graph: nx.Graph,
        ports: Dict[Hashable, int],
        servers: Optional[Dict[Hashable, int]] = None,
        name: str = "jellyfish",
    ) -> None:
        super().__init__(graph, ports, servers, name=name)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        num_switches: int,
        ports_per_switch: int,
        network_degree: int,
        rng: RngLike = None,
        servers_per_switch: Optional[int] = None,
        method: str = "sequential",
        name: str = "jellyfish",
    ) -> "JellyfishTopology":
        """Construct ``RRG(num_switches, ports_per_switch, network_degree)``.

        Each switch uses ``network_degree`` ports for the random interconnect
        and, by default, the remaining ``ports_per_switch - network_degree``
        ports for servers (override with ``servers_per_switch``).  The
        topology is core-backed (see :func:`rrg_core`): no ``networkx``
        graph exists until something needs it.
        """
        core = rrg_core(
            num_switches,
            ports_per_switch,
            network_degree,
            rng,
            servers_per_switch=servers_per_switch,
            method=method,
        )
        return cls.from_core(core, name=name)

    @classmethod
    def from_equipment(
        cls,
        num_switches: int,
        ports_per_switch: int,
        num_servers: int,
        rng: RngLike = None,
        name: str = "jellyfish",
    ) -> "JellyfishTopology":
        """Build a Jellyfish from a switch pool while hosting ``num_servers``.

        Servers are spread as evenly as possible over the switches; every
        remaining port is used for the random interconnect, so switches with
        one server fewer get one extra network link (the graph is only
        near-regular, as in the paper's heterogeneous setting).  This is the
        configuration used when comparing against a fat-tree with the same
        switching equipment but a different number of servers.
        """
        require_integer(num_servers, "num_servers")
        if num_servers < 0:
            raise TopologyError("num_servers must be non-negative")
        if num_servers > num_switches * (ports_per_switch - 1):
            raise TopologyError(
                "too many servers: at least one port per switch must remain "
                "for the network"
            )
        base_servers = num_servers // num_switches
        extra = num_servers % num_switches
        if ports_per_switch - base_servers - (1 if extra else 0) < 1:
            raise TopologyError("no ports remain for the network")

        rand = ensure_rng(rng)
        servers = {}
        budgets = {}
        for node in range(num_switches):
            count = base_servers + (1 if node < extra else 0)
            servers[node] = count
            budgets[node] = min(ports_per_switch - count, num_switches - 1)
        rows, labels = random_graph_with_degree_budget_rows(budgets, rng=rand)
        core = TopologyCore(
            labels,
            rows,
            [ports_per_switch] * num_switches,
            [servers[label] for label in labels],
        )
        return cls.from_core(core, name=name)

    # ------------------------------------------------------------------ #
    # Incremental expansion (Section 4.2)
    # ------------------------------------------------------------------ #
    def add_switch(
        self,
        switch: Hashable,
        ports: int,
        servers: int = 0,
        rng: RngLike = None,
        validate: bool = True,
    ) -> None:
        """Incorporate a new switch by random link swaps.

        The new switch joins the interconnect with ``ports - servers``
        network ports.  While it has at least two free ports, a random
        existing link (v, w) with v, w not already adjacent to the new switch
        is removed and replaced by links (u, v) and (u, w).  A final odd free
        port is left unused, as in the paper.

        The splice-eligible link set is maintained incrementally (see
        :class:`_SpliceCandidateSet`); selected edges -- and therefore the
        resulting topology -- are identical to the historical per-iteration
        rebuild for the same seed.  ``validate=False`` defers the port-budget
        check to the caller (used by :meth:`expand` to validate once).
        """
        require_integer(ports, "ports")
        require_integer(servers, "servers")
        if switch in self.graph:
            raise TopologyError(f"switch {switch!r} already exists")
        if servers < 0 or servers > ports:
            raise TopologyError("servers must be between 0 and ports")
        rand = ensure_rng(rng)

        graph = self.edit_graph()
        graph.add_node(switch)
        self.ports[switch] = ports
        self.servers[switch] = servers

        if self.free_ports(switch) >= 2:
            candidates = _SpliceCandidateSet(graph.edges)
            while self.free_ports(switch) >= 2 and len(candidates):
                v, w = candidates.select(rand.randrange(len(candidates)))
                graph.remove_edge(v, w)
                graph.add_edge(switch, v)
                graph.add_edge(switch, w)
                candidates.remove_incident_to(v)
                candidates.remove_incident_to(w)
        if validate:
            self.validate()

    def add_rack(
        self,
        switch: Hashable,
        ports: int,
        servers: int,
        rng: RngLike = None,
    ) -> None:
        """Add a rack: a new ToR switch with ``servers`` hosts attached."""
        if servers <= 0:
            raise TopologyError("a rack must contain at least one server")
        self.add_switch(switch, ports, servers=servers, rng=rng)

    def expand(
        self,
        new_switches: int,
        ports: int,
        servers_per_switch: int,
        rng: RngLike = None,
        prefix: str = "new",
    ) -> None:
        """Add ``new_switches`` racks in one expansion step.

        Switch identifiers are ``(prefix, i)`` with ``i`` continuing from the
        current switch count so repeated expansions never collide.  The port
        budget is validated once after the whole batch rather than after
        every added switch.
        """
        require_integer(new_switches, "new_switches")
        if new_switches < 0:
            raise ValueError("new_switches must be non-negative")
        rand = ensure_rng(rng)
        start = self.num_switches
        for offset in range(new_switches):
            self.add_switch(
                (prefix, start + offset),
                ports,
                servers=servers_per_switch,
                rng=rand,
                validate=False,
            )
        self.validate()

    def rewired_links_for_expansion(self, ports_added: int) -> int:
        """Number of existing cables that must be moved to absorb new ports.

        Every two new network ports require removing one existing link and
        adding two new cables (Section 6.2), so the count of moved cables is
        ``ports_added // 2``.
        """
        if ports_added < 0:
            raise ValueError("ports_added must be non-negative")
        return ports_added // 2
