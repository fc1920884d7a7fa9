"""Yen's k-shortest loopless paths algorithm (Yen, 1971).

The paper routes Jellyfish with k-shortest-path routing (k = 8) because
plain ECMP does not expose enough path diversity on a random graph.  The
enumeration runs on the CSR kernel (:func:`repro.graphs.csr.k_shortest_path_indices`):
integer node ids, reusable stamped visited/parent arrays per spur BFS, and
integer edge keys instead of rebuilt tuple sets.  Spur BFS expands
neighbors in the same adjacency order as the historical pure-Python
implementation (kept in :mod:`repro.routing._reference`), so results match
it path-for-path.

Ties between equal-length candidates are broken by the native node sequence
(all topologies use int or tuple node ids), which is stable under graph
relabeling — unlike the stringified ordering used previously, which sorted
node 10 before node 2.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import networkx as nx

from repro.graphs.csr import (
    csr_graph,
    k_shortest_path_indices,
    path_from_parent_tree,
)

Path = Tuple[Hashable, ...]


def k_shortest_paths(
    graph: nx.Graph, source: Hashable, target: Hashable, k: int
) -> List[Path]:
    """Return up to ``k`` loopless shortest paths from ``source`` to ``target``.

    Paths are returned in non-decreasing length order; ties are broken
    deterministically by node sequence so results are reproducible.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    csr = csr_graph(graph)
    try:
        source_index = csr.index_of[source]
        target_index = csr.index_of[target]
    except KeyError:
        raise nx.NodeNotFound(
            f"source {source!r} or target {target!r} not in graph"
        ) from None
    first = path_from_parent_tree(
        csr.bfs_parent_tree(source_index), source_index, target_index
    )
    if first is None:
        return []
    index_paths = k_shortest_path_indices(
        csr, source_index, target_index, k, first_path=first
    )
    nodes = csr.nodes
    return [tuple(nodes[i] for i in path) for path in index_paths]


def all_pairs_k_shortest_paths(
    graph: nx.Graph, pairs: Sequence[Tuple[Hashable, Hashable]], k: int
) -> Dict[Tuple[Hashable, Hashable], List[Path]]:
    """Compute k-shortest paths for a collection of (source, target) pairs.

    Pairs are grouped by source and each source's BFS shortest-path tree is
    computed once and shared across its targets, so the per-pair Yen run
    skips its initial full BFS.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    for source, target in pairs:
        if source not in graph or target not in graph:
            raise nx.NodeNotFound(
                f"source {source!r} or target {target!r} not in graph"
            )
    csr = csr_graph(graph)
    nodes = csr.nodes
    by_source: Dict[int, List[Tuple[Hashable, Hashable]]] = {}
    for source, target in pairs:
        by_source.setdefault(csr.index_of[source], []).append((source, target))

    table: Dict[Tuple[Hashable, Hashable], List[Path]] = {}
    for source_index, group in by_source.items():
        parents = csr.bfs_parent_tree(source_index)
        for pair in group:
            first = path_from_parent_tree(
                parents, source_index, csr.index_of[pair[1]]
            )
            if first is None:
                table[pair] = []
                continue
            index_paths = k_shortest_path_indices(
                csr, source_index, csr.index_of[pair[1]], k, first_path=first
            )
            table[pair] = [tuple(nodes[i] for i in path) for path in index_paths]
    return table
