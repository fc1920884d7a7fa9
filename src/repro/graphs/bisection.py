"""Bisection bandwidth computations.

Two tools matching the paper's evaluation methodology:

* :func:`bollobas_bisection_lower_bound` -- the analytic lower bound of
  Bollobás (1988) used for Fig 2(a) and 2(b): in almost every r-regular
  graph on N nodes, every set of N/2 nodes is joined to the rest by at least
  ``N * (r/4 - sqrt(r * ln 2) / 2)`` edges.
* :func:`estimate_bisection_bandwidth` -- a Kernighan–Lin-style heuristic
  that searches for a small balanced cut in a concrete graph (upper bound on
  the true bisection width); used for the LEGUP comparison (Fig 7) where
  concrete expanded topologies are measured.
"""

from __future__ import annotations

import math
from typing import Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.graphs.csr import CSRGraph, csr_graph
from repro.utils.rng import RngLike, ensure_rng


def bollobas_bisection_lower_bound(num_nodes: int, degree: int) -> float:
    """Bollobás' lower bound on the bisection width of an r-regular graph.

    Returns the minimum number of edges crossing any balanced partition, for
    almost every ``degree``-regular graph on ``num_nodes`` nodes:
    ``N * (r/4 - sqrt(r * ln 2) / 2)``.  The bound can be negative for very
    small degrees, in which case it is clamped to zero.
    """
    if num_nodes < 0 or degree < 0:
        raise ValueError("num_nodes and degree must be non-negative")
    bound = num_nodes * (degree / 4.0 - math.sqrt(degree * math.log(2)) / 2.0)
    return max(0.0, bound)


def cut_size(csr: CSRGraph, partition: Set) -> int:
    """Number of edges with exactly one endpoint inside ``partition``.

    A boolean side vector indexed by the view's directed edge arrays counts
    mismatched endpoints in one vectorized pass.
    """
    if csr.num_edges == 0:
        return 0
    side = np.zeros(csr.num_nodes, dtype=bool)
    inside = [csr.index_of[node] for node in partition if node in csr.index_of]
    side[inside] = True
    crossings = np.count_nonzero(side[csr.edge_sources()] != side[csr.indices])
    return int(crossings) // 2


def _kernighan_lin_once(graph: nx.Graph, csr: CSRGraph, rng) -> Tuple[Set, int]:
    """One randomized Kernighan–Lin bisection refinement pass (``csr`` is
    ``graph``'s view, for the cut count)."""
    nodes = list(graph.nodes)
    rng.shuffle(nodes)
    half = len(nodes) // 2
    side_a = set(nodes[:half])
    partition = nx.algorithms.community.kernighan_lin_bisection(
        graph, partition=(side_a, set(nodes[half:])), seed=rng.randrange(2**32)
    )
    best_side = set(partition[0])
    return best_side, cut_size(csr, best_side)


def estimate_bisection_bandwidth(
    graph: nx.Graph,
    trials: int = 5,
    rng: RngLike = None,
    weight_per_edge: float = 1.0,
) -> float:
    """Heuristic (upper-bound) estimate of the bisection bandwidth.

    Runs ``trials`` randomized Kernighan–Lin bisections and returns the
    smallest cut found, scaled by ``weight_per_edge`` (link capacity).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if graph.number_of_nodes() < 2:
        return 0.0
    rand = ensure_rng(rng)
    csr = csr_graph(graph)
    best: Optional[int] = None
    for _ in range(trials):
        _, size = _kernighan_lin_once(graph, csr, rand)
        if best is None or size < best:
            best = size
    return float(best) * weight_per_edge if best is not None else 0.0
