"""Structural graph metrics used throughout the evaluation.

The paper's Figures 1(c) and 5 report server-to-server and switch-to-switch
path-length distributions, means and diameters.  All edges have unit length,
so everything reduces to BFS hop distances; the heavy lifting runs on the
bit-parallel batched BFS kernel in :mod:`repro.graphs.csr` and pairwise
histograms are reduced with ``numpy`` straight from the distance matrix.

Every metric takes a :class:`~repro.graphs.csr.CSRGraph`: a topology's
own view (:meth:`repro.topologies.base.Topology.csr`) or one built from a
bare graph with :func:`~repro.graphs.csr.csr_graph`.  Per-source distance
rows are memoized in :data:`~repro.graphs.csr.DIST_ROW_MEMO`, keyed by the
view's content hash, so one BFS sweep is shared by
:func:`average_path_length`, :func:`diameter` and the server path-length
CDF, and a changed graph -- whose view is new -- gets fresh rows.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping

import numpy as np

from repro.graphs.csr import DIST_ROW_MEMO, DIST_ROW_MEMO_NODE_LIMIT, CSRGraph


def _bfs_matrix(csr: CSRGraph, source_indices: List[int]) -> np.ndarray:
    """Kernel seam: batched BFS rows for the given source indices.

    Kept as a module-level indirection so tests can count BFS sweeps.
    """
    return csr.hop_distance_matrix(source_indices)


def _rows_for_indices(csr: CSRGraph, wanted: List[int]) -> List[np.ndarray]:
    """Distance rows for ``wanted``, via the bounded content-hash LRU memo.

    Rows live in the global memo in :mod:`repro.graphs.csr` — keyed by the
    CSR ``content_hash``, byte-bounded, LRU-evicting — rather than on the
    view, so structurally equal graphs share sweeps and a long sweep over
    many topologies cannot grow the memo without limit.  Graphs beyond
    ``DIST_ROW_MEMO_NODE_LIMIT`` nodes (where the all-pairs table would
    dominate memory; paper-scale fig05 builds 3200-switch graphs) bypass
    the memo entirely and are recomputed per call.
    """
    if csr.num_nodes <= DIST_ROW_MEMO_NODE_LIMIT:
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


def path_length_distribution(csr: CSRGraph) -> Counter:
    """Histogram of pairwise shortest-path lengths between distinct nodes.

    Unreachable pairs are ignored; each unordered pair is counted once.
    """
    n = csr.num_nodes
    if n < 2:
        return Counter()
    matrix = np.stack(_rows_for_indices(csr, list(range(n))))
    upper = matrix[np.triu_indices(n, k=1)]
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
    """Connected-component label per node: one BFS per component.

    Labels are dense ints starting at 0, numbered by each component's
    lowest node index, so component 0 contains node 0 (when the graph is
    non-empty).  This is the one labeling that decides reachability on a
    partitioned topology (:func:`repro.flow.throughput.degraded_throughput`).
    Each BFS is a memoized :meth:`CSRGraph.distance_row`, so the row from
    node 0 also answers :func:`csr_is_connected`.
    """
    labels = np.full(csr.num_nodes, -1, dtype=np.int64)
    label = 0
    for start in range(csr.num_nodes):
        if labels[start] < 0:
            labels[csr.distance_row(start) >= 0] = label
            label += 1
    return labels


_NO_CONNECTED_PAIR = "graph has no connected pair of the requested nodes"


def histogram_mean(histogram: Mapping[int, int]) -> float:
    """Mean hop count of a ``{hops: pairs}`` histogram that counts some pair."""
    total = sum(histogram.values())
    if total == 0:
        raise ValueError(_NO_CONNECTED_PAIR)
    return sum(hops * count for hops, count in histogram.items()) / total


def histogram_cdf(histogram: Mapping[int, int]) -> Dict[int, float]:
    """Cumulative fraction of a ``{hops: pairs}`` histogram's pairs within
    each hop count.

    Raises ``ValueError`` when the histogram counts no pair.
    """
    total = sum(histogram.values())
    if total == 0:
        raise ValueError(_NO_CONNECTED_PAIR)
    cdf: Dict[int, float] = {}
    running = 0
    for hops in sorted(histogram):
        running += histogram[hops]
        cdf[hops] = running / total
    return cdf


def average_path_length(csr: CSRGraph) -> float:
    """Mean shortest-path length over distinct reachable pairs (exact)."""
    return histogram_mean(path_length_distribution(csr))


def diameter(csr: CSRGraph) -> int:
    """Longest shortest path (the graph must connect some pair)."""
    histogram = path_length_distribution(csr)
    if not histogram:
        raise ValueError(_NO_CONNECTED_PAIR)
    return max(histogram)


def server_path_length_cdf(csr: CSRGraph, server_counts) -> Dict[int, float]:
    """Server-to-server path-length CDF computed at the switch level.

    Equivalent to building the combined host graph (servers as leaves) and
    taking the path-length CDF over its server nodes -- every
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
    return histogram_cdf(histogram)

