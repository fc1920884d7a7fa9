"""Structural graph metrics used throughout the evaluation.

The paper's Figures 1(c) and 5 report server-to-server and switch-to-switch
path-length distributions, means and diameters.  All edges have unit length,
so everything reduces to BFS hop distances; the heavy lifting runs on the
bit-parallel batched BFS kernel in :mod:`repro.graphs.csr` and pairwise
histograms are reduced with ``numpy`` straight from the distance matrix.

Per-source distance rows are memoized in
:data:`~repro.graphs.csr.DIST_ROW_MEMO`, keyed by the CSR content hash, so
one BFS sweep is shared by :func:`average_path_length`, :func:`diameter`
and :func:`path_length_cdf`.  The CSR view is revalidated against its
structural fingerprint, so in-place mutations — including
edge-count-preserving rewires such as failure injection followed by repair
— produce a new content hash and fresh rows.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.graphs.csr import (
    DIST_ROW_MEMO,
    DIST_ROW_MEMO_NODE_LIMIT,
    CSRGraph,
    csr_graph,
)
from repro.resources import PROFILE_SAMPLE_SEED, active_profile


def is_connected(graph: nx.Graph) -> bool:
    """True if ``graph`` is connected (an empty graph counts as connected)."""
    if graph.number_of_nodes() == 0:
        return True
    return nx.is_connected(graph)


#: Per-source distance rows are memoized only for graphs at most this large;
#: beyond it the all-pairs table would dominate memory (paper-scale fig05
#: builds 3200-switch graphs) and distances are recomputed transiently.
#: (Single source of truth lives in :mod:`repro.graphs.csr`.)
ALL_PAIRS_MEMO_NODE_LIMIT = DIST_ROW_MEMO_NODE_LIMIT


def _indices_of(csr: CSRGraph, nodes: Iterable) -> List[int]:
    """Resolve nodes to CSR indices, raising ``NodeNotFound`` on a miss."""
    try:
        return [csr.index_of[node] for node in nodes]
    except KeyError as error:
        raise nx.NodeNotFound(f"node {error.args[0]!r} not in graph") from None


def _bfs_matrix(csr: CSRGraph, source_indices: List[int]) -> np.ndarray:
    """Kernel seam: batched BFS rows for the given source indices.

    Kept as a module-level indirection so tests can count BFS sweeps.
    """
    return csr.hop_distance_matrix(source_indices)


def _distance_rows(
    graph: nx.Graph,
    sources: Optional[Iterable] = None,
    memo_limit: int = ALL_PAIRS_MEMO_NODE_LIMIT,
) -> Tuple[CSRGraph, List[int], List[np.ndarray]]:
    """CSR view plus one distance row per requested source (memoized)."""
    csr = csr_graph(graph)
    if sources is None:
        wanted = list(range(csr.num_nodes))
    else:
        wanted = _indices_of(csr, sources)
    return csr, wanted, _rows_for_indices(csr, wanted, memo_limit)


def _rows_for_indices(
    csr: CSRGraph, wanted: List[int], memo_limit: int = ALL_PAIRS_MEMO_NODE_LIMIT
) -> List[np.ndarray]:
    """Distance rows for ``wanted``, via the bounded content-hash LRU memo.

    Rows live in the global memo in :mod:`repro.graphs.csr` — keyed by the
    CSR ``content_hash``, byte-bounded, LRU-evicting — rather than on the
    view, so structurally equal graphs share sweeps and a long sweep over
    many topologies cannot grow the memo without limit.  Graphs beyond
    ``memo_limit`` nodes bypass the memo entirely (recomputed per call).
    """
    if csr.num_nodes <= memo_limit:
        content = csr.content_hash
        rows: Dict[int, np.ndarray] = {}
        missing = []
        for index in wanted:
            row = DIST_ROW_MEMO.get((content, index))
            if row is None:
                missing.append(index)
            else:
                rows[index] = row
        if missing:
            matrix = _bfs_matrix(csr, missing)
            for position, index in enumerate(missing):
                # A copy owns its bytes; a view would pin the whole matrix.
                rows[index] = DIST_ROW_MEMO.put((content, index), matrix[position].copy())
        return [rows[index] for index in wanted]
    return list(_bfs_matrix(csr, wanted))


def all_pairs_hop_distances(
    graph: nx.Graph,
    sources: Optional[Iterable] = None,
    memo_limit: int = ALL_PAIRS_MEMO_NODE_LIMIT,
) -> Dict:
    """Hop distances from each of ``sources`` (default: all nodes) to every
    reachable node, as ``{source: {node: hops}}``.

    The underlying BFS rows are memoized per graph (weakly referenced, see
    :func:`_distance_rows`); the dict-of-dicts view is rebuilt per call for
    API compatibility, so hot paths should use the array kernels directly.
    """
    csr, wanted, rows = _distance_rows(graph, sources, memo_limit)
    nodes = csr.nodes
    table: Dict = {}
    for index, row in zip(wanted, rows):
        reachable = np.nonzero(row >= 0)[0]
        table[nodes[index]] = {
            nodes[target]: int(row[target]) for target in reachable.tolist()
        }
    return table


def path_length_distribution(
    graph: nx.Graph, nodes: Optional[Iterable] = None
) -> Counter:
    """Histogram of pairwise shortest-path lengths between distinct nodes.

    ``nodes`` restricts the computation to ordered pairs drawn from that
    subset (e.g. only ToR switches that host servers).  Unreachable pairs are
    ignored.  Each unordered pair is counted once.
    """
    csr = csr_graph(graph)
    if nodes is None:
        target_indices = None
    else:
        target_indices = sorted(set(_indices_of(csr, nodes)))
    return path_length_distribution_csr(csr, target_indices)


def path_length_distribution_csr(
    csr: CSRGraph, target_indices: Optional[List[int]] = None
) -> Counter:
    """:func:`path_length_distribution` on a CSR view directly.

    The array-native entry point used by :meth:`repro.topologies.base.Topology`
    metrics so core-built topologies never materialize a ``networkx`` graph
    for path statistics.  ``target_indices`` must be sorted and duplicate-free.
    """
    if target_indices is None:
        target_indices = list(range(csr.num_nodes))
    if len(target_indices) < 2:
        return Counter()
    rows = _rows_for_indices(csr, target_indices)
    submatrix = np.stack(rows)[:, target_indices]
    upper = submatrix[np.triu_indices(len(target_indices), k=1)]
    upper = upper[upper > 0]  # drops unreachable (-1); 0 only occurs on the diagonal
    counts = np.bincount(upper)
    return Counter(
        {hops: int(count) for hops, count in enumerate(counts.tolist()) if count}
    )


def csr_is_connected(csr: CSRGraph) -> bool:
    """True if the CSR view describes a connected graph (empty counts)."""
    if csr.num_nodes == 0:
        return True
    return bool((csr.distance_row(0) >= 0).all())


def csr_component_labels(csr: CSRGraph) -> np.ndarray:
    """Connected-component label per node, in discovery order.

    Labels are dense ints starting at 0; component 0 contains node 0 (when
    the graph is non-empty).  Every degradation-safe kernel shares this
    labeling -- the :class:`~repro.failures.degradation.DegradationReport`
    of a partitioned topology is derived from it -- so "same component"
    means the same thing everywhere.
    """
    labels = np.full(csr.num_nodes, -1, dtype=np.int64)
    indptr = csr.indptr
    indices = csr.indices
    next_label = 0
    for start in range(csr.num_nodes):
        if labels[start] >= 0:
            continue
        labels[start] = next_label
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in indices[indptr[node] : indptr[node + 1]].tolist():
                if labels[neighbor] < 0:
                    labels[neighbor] = next_label
                    stack.append(neighbor)
        next_label += 1
    return labels


def average_path_length_csr(csr: CSRGraph) -> float:
    """Mean shortest-path length over distinct reachable pairs (CSR entry).

    Under a ``sampled`` execution profile (degradation-ladder rung 2+, see
    :mod:`repro.resources`) this delegates to the source-sampled streaming
    estimator with a fixed seed -- a deterministic, memory-bounded estimate
    instead of the all-pairs reduction.  Tiny graphs, where the planner
    cannot demote below "all sources", stay exact.
    """
    profile = active_profile()
    if profile.sampled:
        from repro.graphs.sampling import sampled_path_length_stats

        stats = sampled_path_length_stats(
            csr,
            num_sources=profile.plan_sources(csr.num_nodes, None),
            seed=PROFILE_SAMPLE_SEED,
        )
        if not stats.exact:
            return stats.mean
    histogram = path_length_distribution_csr(csr)
    total_pairs = sum(histogram.values())
    if total_pairs == 0:
        raise ValueError("graph has no connected pair of the requested nodes")
    return sum(hops * count for hops, count in histogram.items()) / total_pairs


def diameter_csr(csr: CSRGraph) -> int:
    """Longest shortest path over a CSR view (must connect some pair)."""
    histogram = path_length_distribution_csr(csr)
    if not histogram:
        raise ValueError("graph has no connected pair of the requested nodes")
    return max(histogram)


def server_path_length_cdf_csr(csr: CSRGraph, server_counts) -> Dict[int, float]:
    """Server-to-server path-length CDF computed at the switch level.

    Equivalent to building the combined host graph (servers as leaves) and
    running :func:`path_length_cdf` over its server nodes -- every
    server-to-server path goes leaf -> switch ... switch -> leaf, so a pair
    on switches ``u != v`` is ``hops(u, v) + 2`` apart and a pair sharing a
    switch is 2 apart -- but runs BFS only over the switch graph and weights
    each switch pair by its number of server pairs.  ``server_counts`` is
    aligned with ``csr.nodes``.  Produces bit-identical fractions to the
    host-graph path (same integer histogram, same divisions).
    """
    counts = np.asarray(server_counts, dtype=np.int64)
    if counts.shape != (csr.num_nodes,):
        raise ValueError("server_counts must align with csr.nodes")
    hosts = np.flatnonzero(counts > 0)
    histogram: Counter = Counter()
    same_switch_pairs = int((counts[hosts] * (counts[hosts] - 1) // 2).sum())
    if same_switch_pairs:
        histogram[2] = same_switch_pairs
    if len(hosts) >= 2:
        host_counts = counts[hosts]
        rows = _rows_for_indices(csr, hosts.tolist())
        submatrix = np.stack(rows)[:, hosts]
        upper_i, upper_j = np.triu_indices(len(hosts), k=1)
        dists = submatrix[upper_i, upper_j]
        reachable = dists >= 0
        if reachable.any():
            weights = host_counts[upper_i[reachable]] * host_counts[upper_j[reachable]]
            binned = np.bincount(
                dists[reachable] + 2, weights=weights.astype(np.float64)
            )
            for hops, weight in enumerate(binned.tolist()):
                if weight:
                    histogram[hops] += int(weight)
    total = sum(histogram.values())
    if total == 0:
        raise ValueError("graph has no connected pair of the requested nodes")
    cdf: Dict[int, float] = {}
    running = 0
    for hops in sorted(histogram):
        running += histogram[hops]
        cdf[hops] = running / total
    return cdf


def average_path_length(graph: nx.Graph, nodes: Optional[Iterable] = None) -> float:
    """Mean shortest-path length over distinct reachable node pairs."""
    histogram = path_length_distribution(graph, nodes)
    total_pairs = sum(histogram.values())
    if total_pairs == 0:
        raise ValueError("graph has no connected pair of the requested nodes")
    return sum(hops * count for hops, count in histogram.items()) / total_pairs


def diameter(graph: nx.Graph, nodes: Optional[Iterable] = None) -> int:
    """Longest shortest path among the requested nodes (graph must connect them)."""
    histogram = path_length_distribution(graph, nodes)
    if not histogram:
        raise ValueError("graph has no connected pair of the requested nodes")
    return max(histogram)


def path_length_cdf(graph: nx.Graph, nodes: Optional[Iterable] = None) -> Dict[int, float]:
    """Cumulative fraction of node pairs reachable within each hop count.

    This is the quantity plotted in Fig 1(c): fraction of server pairs with
    path length <= h, for each h.
    """
    histogram = path_length_distribution(graph, nodes)
    total = sum(histogram.values())
    if total == 0:
        raise ValueError("graph has no connected pair of the requested nodes")
    cdf: Dict[int, float] = {}
    running = 0
    for hops in sorted(histogram):
        running += histogram[hops]
        cdf[hops] = running / total
    return cdf


def degree_histogram(graph: nx.Graph) -> Counter:
    """Histogram mapping degree -> number of nodes with that degree."""
    return Counter(dict(graph.degree()).values())


def node_connectivity_at_least(graph: nx.Graph, k: int) -> bool:
    """True if the graph is at least ``k``-connected.

    Random r-regular graphs are almost surely r-connected (Section 4.3); this
    check is used by the resilience tests.
    """
    if k <= 0:
        return True
    if graph.number_of_nodes() <= k:
        return False
    return nx.node_connectivity(graph) >= k
