"""Degree-diameter benchmark graphs (paper Section 4.1, Fig 3).

The paper benchmarks Jellyfish against the *best known* degree-diameter
graphs from the Comellas-Delorme web table.  Those graph files are not
available offline, so this module provides:

* exact classical constructions where they exist and are optimal
  (:func:`petersen_graph` -- 10 nodes, degree 3, diameter 2;
  :func:`hoffman_singleton_graph` -- 50 nodes, degree 7, diameter 2), and
* :func:`optimized_low_diameter_graph` -- a local-search optimizer that,
  given a node count and degree, starts from a random regular graph and
  performs 2-opt edge swaps to minimize average path length (breaking ties
  on diameter).  This plays the same benchmarking role as the table graphs:
  a carefully optimized graph of identical size and degree against which the
  plain random graph is measured.

Both are wrapped into :class:`DegreeDiameterTopology` so they can carry
servers and enter the throughput harness.
"""

from __future__ import annotations

from typing import Optional, Tuple

import networkx as nx

from repro.graphs.csr import CSRGraph, csr_graph
from repro.graphs.properties import (
    csr_is_connected,
    histogram_mean,
    path_length_distribution,
)
from repro.graphs.regular import random_regular_graph
from repro.topologies.base import Topology
from repro.topologies.jellyfish import rrg_budget
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_integer


def petersen_graph() -> nx.Graph:
    """The Petersen graph: 10 nodes, 3-regular, diameter 2 (Moore-optimal)."""
    return nx.petersen_graph()


def hoffman_singleton_graph() -> nx.Graph:
    """The Hoffman-Singleton graph: 50 nodes, 7-regular, diameter 2.

    This is the unique Moore graph of degree 7 and is the optimal
    degree-diameter graph for (degree=7, diameter=2); the paper's (50, 11, 7)
    configuration in Fig 3 is exactly this graph with 4 servers per switch.
    """
    return nx.hoffman_singleton_graph()


def _swap_edges(graph: nx.Graph, e1, e2) -> Optional[Tuple]:
    """Attempt a degree-preserving 2-opt swap of edges ``e1`` and ``e2``.

    Replaces (a, b), (c, d) with (a, c), (b, d) when that keeps the graph
    simple.  Returns the new edge pair, or None if the swap is not valid.
    """
    (a, b), (c, d) = e1, e2
    if len({a, b, c, d}) < 4:
        return None
    if graph.has_edge(a, c) or graph.has_edge(b, d):
        return None
    graph.remove_edge(a, b)
    graph.remove_edge(c, d)
    graph.add_edge(a, c)
    graph.add_edge(b, d)
    return (a, c), (b, d)


def _score(csr: CSRGraph) -> Tuple[float, int]:
    """(average path length, diameter) over reachable pairs, from one histogram."""
    histogram = path_length_distribution(csr)
    return histogram_mean(histogram), max(histogram)


def optimized_low_diameter_graph(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    iterations: int = 2000,
) -> nx.Graph:
    """Local-search approximation of a best-known degree-diameter graph.

    Starts from a random regular graph and repeatedly applies 2-opt edge
    swaps, keeping a swap whenever it reduces (average path length, diameter)
    lexicographically and preserves connectivity.  The result is a carefully
    optimized benchmark graph of the given size and degree.
    """
    require_integer(iterations, "iterations")
    rand = ensure_rng(rng)
    graph = random_regular_graph(num_nodes, degree, rand)
    if graph.number_of_edges() < 2:
        return graph

    best_score = _score(csr_graph(graph))
    for _ in range(iterations):
        edges = list(graph.edges)
        e1 = edges[rand.randrange(len(edges))]
        e2 = edges[rand.randrange(len(edges))]
        swapped = _swap_edges(graph, e1, e2)
        if swapped is None:
            continue
        # One view per candidate: connectivity and score share its rows.
        csr = csr_graph(graph)
        score = _score(csr) if csr_is_connected(csr) else None
        if score is not None and score < best_score:
            best_score = score
            continue
        # Revert the swap.
        (a, c), (b, d) = swapped
        graph.remove_edge(a, c)
        graph.remove_edge(b, d)
        graph.add_edge(*e1)
        graph.add_edge(*e2)
    return graph


# Known exact constructions keyed by (num_nodes, degree).
_EXACT_CONSTRUCTIONS = {
    (10, 3): petersen_graph,
    (50, 7): hoffman_singleton_graph,
}


class DegreeDiameterTopology(Topology):
    """A benchmark topology built from a (near-)optimal degree-diameter graph."""

    @classmethod
    def build(
        cls,
        num_switches: int,
        ports_per_switch: int,
        network_degree: int,
        servers_per_switch: Optional[int] = None,
        rng: RngLike = None,
        iterations: int = 2000,
        name: str = "degree-diameter",
    ) -> "DegreeDiameterTopology":
        """Build the benchmark graph for (num_switches, network_degree).

        Uses an exact classical construction when one is known for the
        parameters, otherwise the local-search optimizer.  The port budget
        is checked as for ``RRG(N, k, r)`` (:func:`rrg_budget`: servers per
        switch default to ``ports_per_switch - network_degree``, and the
        optimizer's degree drops by one when ``N * r`` is odd).
        """
        servers_per_switch, degree = rrg_budget(
            num_switches, ports_per_switch, network_degree, servers_per_switch
        )
        exact = _EXACT_CONSTRUCTIONS.get((num_switches, network_degree))
        if exact is not None:
            graph = exact()
        else:
            graph = optimized_low_diameter_graph(
                num_switches, degree, rng=rng, iterations=iterations
            )
        ports = {node: ports_per_switch for node in graph.nodes}
        servers = {node: servers_per_switch for node in graph.nodes}
        return cls(graph, ports, servers, name=name)
