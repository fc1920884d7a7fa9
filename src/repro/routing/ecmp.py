"""ECMP (equal-cost multi-path) routing.

ECMP hashes each flow onto one of the equal-cost *shortest* paths between
its endpoints.  Commodity implementations bound the number of next-hop
entries, so we model w-way ECMP (the paper evaluates 8-way and 64-way) by
keeping at most ``width`` shortest paths per switch pair, selected
deterministically, and hashing flows over that set.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import networkx as nx

from repro.graphs.csr import CSRGraph, all_shortest_path_indices
from repro.routing.ksp import Path
from repro.utils.rng import RngLike, ensure_rng


def all_shortest_paths(csr: CSRGraph, source: Hashable, target: Hashable) -> List[Path]:
    """All shortest paths between two nodes, deterministically ordered.

    Enumerated over the CSR kernel: two BFS distance rows (from source and
    target) classify which edges lie on a shortest path, and a DFS walks
    exactly those.  Paths are ordered by native node sequence.
    """
    try:
        source_index = csr.index_of[source]
        target_index = csr.index_of[target]
    except KeyError:
        raise nx.NodeNotFound(
            f"source {source!r} or target {target!r} not in graph"
        ) from None
    index_paths = all_shortest_path_indices(csr, source_index, target_index)
    nodes = csr.nodes
    return [tuple(nodes[i] for i in path) for path in index_paths]


def ecmp_paths(
    csr: CSRGraph, source: Hashable, target: Hashable, width: int = 8
) -> List[Path]:
    """The path set w-way ECMP can use: up to ``width`` shortest paths."""
    if width <= 0:
        raise ValueError("width must be positive")
    return all_shortest_paths(csr, source, target)[:width]


def ecmp_route_flows(
    paths_by_pair: Dict[Tuple[Hashable, Hashable], List[Path]],
    flows: Sequence[Tuple[Hashable, Hashable]],
    rng: RngLike = None,
) -> List[Path]:
    """Assign each flow to one path from its pair's ECMP set (random hash).

    ``flows`` lists (source switch, destination switch) per flow; the result
    gives each flow's chosen path in the same order.
    """
    rand = ensure_rng(rng)
    chosen: List[Path] = []
    for source, target in flows:
        options = paths_by_pair.get((source, target), [])
        if not options:
            raise ValueError(f"no path available for flow {source!r} -> {target!r}")
        chosen.append(options[rand.randrange(len(options))])
    return chosen
