"""Yen's k-shortest loopless paths algorithm (Yen, 1971).

The paper routes Jellyfish with k-shortest-path routing (k = 8) because
plain ECMP does not expose enough path diversity on a random graph.  The
enumeration runs on the CSR kernel
(:func:`repro.graphs.csr.k_shortest_path_table`), which runs Yen for every
pair of a path table in lockstep over integer node ids.  Each spur path is
the one the historical FIFO spur BFS (the oracle in
``tests/oracles/routing.py``) returns, so results match it path-for-path.

Ties between equal-length candidates are broken by the native node sequence
(all topologies use int or tuple node ids), which is stable under graph
relabeling — unlike the stringified ordering used previously, which sorted
node 10 before node 2.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import networkx as nx

from repro.graphs.csr import (
    CSRGraph,
    k_shortest_path_indices,
    k_shortest_path_table,
    path_from_parent_tree,
)

Path = Tuple[Hashable, ...]


def k_shortest_paths(
    csr: CSRGraph, source: Hashable, target: Hashable, k: int
) -> List[Path]:
    """Return up to ``k`` loopless shortest paths from ``source`` to ``target``.

    Paths are returned in non-decreasing length order; ties are broken
    deterministically by node sequence so results are reproducible.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    try:
        source_index = csr.index_of[source]
        target_index = csr.index_of[target]
    except KeyError:
        raise nx.NodeNotFound(
            f"source {source!r} or target {target!r} not in graph"
        ) from None
    return _node_paths(
        csr.nodes, [k_shortest_path_indices(csr, source_index, target_index, k)]
    )[0]


def all_pairs_k_shortest_paths(
    csr: CSRGraph, pairs: Sequence[Tuple[Hashable, Hashable]], k: int
) -> Dict[Tuple[Hashable, Hashable], List[Path]]:
    """Compute k-shortest paths for a collection of (source, target) pairs.

    Each source's BFS shortest-path tree is computed once and gives the
    first path of every pair from that source; Yen then runs for all pairs
    in lockstep (:func:`repro.graphs.csr.k_shortest_path_table`).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    index_of = csr.index_of
    for source, target in pairs:
        if source not in index_of or target not in index_of:
            raise nx.NodeNotFound(
                f"source {source!r} or target {target!r} not in graph"
            )
    unique = list(dict.fromkeys(pairs))
    trees: Dict[int, List[int]] = {}
    first_paths = []
    for source, target in unique:
        source_index = index_of[source]
        parents = trees.get(source_index)
        if parents is None:
            parents = trees[source_index] = csr.bfs_parent_tree(source_index)
        first_paths.append(
            path_from_parent_tree(parents, source_index, index_of[target])
        )
    tables = _node_paths(csr.nodes, k_shortest_path_table(csr, first_paths, k))
    return dict(zip(unique, tables))


def _node_paths(
    nodes: Sequence[Hashable], tables: List[List[Tuple[int, ...]]]
) -> List[List[Path]]:
    """Map each pair's index paths to node paths."""
    label = nodes.__getitem__
    return [[tuple(map(label, path)) for path in paths] for paths in tables]
