"""Pre-CSR pure-Python routing implementations, kept as parity references.

These are the dict/deque implementations that shipped before the CSR kernel
layer (:mod:`repro.graphs.csr`) took over the hot paths.  The parity suite
(``tests/test_csr_kernels.py``) pins the kernels against them path-for-path,
and ``benchmarks/record_kernels.py`` times old versus new to produce
``benchmarks/BENCH_kernels.json``.

The only deliberate delta from the historical code is the candidate
tiebreak: it compares native node tuples instead of stringified nodes (the
old key ordered node ``10`` before node ``2``), matching the fix applied to
the production implementation.

:func:`bfs_distances`, the per-source dict BFS, used to live in
:mod:`repro.graphs.properties`; only this module and its tests call it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

Path = Tuple[Hashable, ...]


def bfs_distances(graph: nx.Graph, source) -> Dict:
    """Hop distances from ``source`` to every reachable node (including itself).

    Pure-Python reference implementation; the batched CSR kernel is used for
    anything performance-sensitive, and the parity suite pins the two
    against each other.
    """
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def bfs_shortest_path_reference(
    graph: nx.Graph,
    source: Hashable,
    target: Hashable,
    removed_edges: Set[Tuple[Hashable, Hashable]],
    removed_nodes: Set[Hashable],
) -> Optional[Path]:
    """Shortest path by BFS avoiding the removed edges/nodes; None if absent."""
    if source == target:
        return (source,)
    if source in removed_nodes or target in removed_nodes:
        return None
    parents: Dict[Hashable, Hashable] = {source: source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor in parents or neighbor in removed_nodes:
                continue
            if (node, neighbor) in removed_edges or (neighbor, node) in removed_edges:
                continue
            parents[neighbor] = node
            if neighbor == target:
                path = [neighbor]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                return tuple(reversed(path))
            queue.append(neighbor)
    return None


def k_shortest_paths_reference(
    graph: nx.Graph, source: Hashable, target: Hashable, k: int
) -> List[Path]:
    """Yen's algorithm exactly as the pre-CSR implementation ran it."""
    if k <= 0:
        raise ValueError("k must be positive")
    if source not in graph or target not in graph:
        raise nx.NodeNotFound(f"source {source!r} or target {target!r} not in graph")
    first = bfs_shortest_path_reference(graph, source, target, set(), set())
    if first is None:
        return []
    paths: List[Path] = [first]
    candidates: List[Tuple[int, Path]] = []
    seen_candidates: Set[Path] = set()

    while len(paths) < k:
        previous = paths[-1]
        for i in range(len(previous) - 1):
            spur_node = previous[i]
            root = previous[: i + 1]

            removed_edges: Set[Tuple[Hashable, Hashable]] = set()
            for path in paths:
                if len(path) > i and path[: i + 1] == root:
                    removed_edges.add((path[i], path[i + 1]))
            removed_nodes = set(root[:-1])

            spur = bfs_shortest_path_reference(
                graph, spur_node, target, removed_edges, removed_nodes
            )
            if spur is None:
                continue
            candidate = root[:-1] + spur
            if candidate in seen_candidates:
                continue
            seen_candidates.add(candidate)
            heapq.heappush(candidates, (len(candidate), candidate))

        if not candidates:
            break
        _, best = heapq.heappop(candidates)
        paths.append(best)
    return paths


def all_pairs_hop_distances_reference(graph: nx.Graph, sources=None) -> Dict:
    """Per-source dict BFS sweep exactly as the pre-CSR implementation ran it."""
    wanted = list(graph.nodes) if sources is None else list(sources)
    return {source: bfs_distances(graph, source) for source in wanted}
