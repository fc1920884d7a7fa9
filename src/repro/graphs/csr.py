"""Array-native graph kernels: CSR adjacency, batched BFS, CSR-native Yen.

Every figure in the paper reduces to two primitives — all-pairs hop
distances (Figs 1c and 5) and k-shortest-path enumeration (Table 1, Fig 9).
This module provides both as kernels over an immutable compressed-sparse-row
(:class:`CSRGraph`) view of a switch graph:

* :func:`csr_graph` builds a view of an ``nx.Graph``, uncached: a topology
  keeps its own view (:meth:`repro.topologies.base.Topology.csr`), and
  code that holds a bare graph builds the view once and passes it on.
* :meth:`CSRGraph.hop_distance_matrix` runs a frontier-synchronous
  multi-source BFS where the per-source frontier and visited sets are
  bit-packed into ``uint64`` words, so one numpy pass over the edge array
  advances BFS for 64 sources at once.
* :func:`k_shortest_path_table` runs Yen's algorithm for every pair of a
  path table in lockstep: each Yen round answers the spur queries of all
  pairs with one bit-parallel BFS from their targets, and each spur path is
  a greedy walk down that BFS's level bitplanes.
  :func:`k_shortest_path_indices` is its one-pair entry.

Neighbor order within each CSR row preserves the ``networkx`` adjacency
(insertion) order, so BFS parent trees — and therefore every tie broken by
discovery order — match the historical pure-Python implementations exactly.
Node *indices* are assigned in sorted node order whenever the node set is
orderable, which makes index-tuple comparisons equivalent to native
node-tuple comparisons for deterministic tie-breaking.
"""

from __future__ import annotations

import hashlib
import heapq
import sys
from itertools import chain
from operator import attrgetter
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.memo import Memo, memo_stats
from repro.resources import active_profile
from repro.telemetry import count, trace

IndexPath = Tuple[int, ...]

#: Hard cap on the number of bit-planes per BFS chunk.  The effective chunk
#: is the smaller of this and what the scratch budget allows
#: (:func:`bfs_source_chunk`); 4096 sources over a 3200-switch fig05 graph
#: stays under ~60 MB of transient arrays, while a 100k-switch hyperscale
#: graph drops to a few hundred sources per chunk under the default budget.
_BFS_SOURCE_CHUNK = 4096

#: Default scratch budget for one BFS chunk's transient arrays (the
#: ``(edges+1) x words`` gather plus frontier/visited bit-planes and the
#: chunk's distance rows).  Override per call via ``scratch_bytes``.
DEFAULT_BFS_SCRATCH_BYTES = 256 * 1024 * 1024


def default_bfs_scratch_bytes() -> int:
    """The active BFS scratch budget (read per call).

    The active :class:`~repro.resources.ExecutionProfile` scales the result
    (degradation-ladder rungs halve the scratch budget), so a degraded
    re-dispatch genuinely allocates less transient memory per BFS chunk.
    """
    return active_profile().scaled(DEFAULT_BFS_SCRATCH_BYTES)


def bfs_source_chunk(
    num_nodes: int, num_directed_edges: int, scratch_bytes: Optional[int] = None
) -> int:
    """Sources per BFS chunk so transient arrays fit the scratch budget.

    One 64-source bit-plane word costs ``8 * (E + 1)`` bytes of gather
    table, ``2 * 8 * N`` bytes of frontier/visited planes, and ``64 * 4 * N``
    bytes of output distance rows.  The chunk is the largest multiple of 64
    whose total stays within the budget, floored at 64 sources (one word is
    the minimum the bit-parallel kernel can run with) and capped at the
    historical ``4096``.
    """
    budget = scratch_bytes if scratch_bytes is not None else default_bfs_scratch_bytes()
    per_word = 8 * (num_directed_edges + 1) + 16 * max(num_nodes, 1) + 256 * max(num_nodes, 1)
    words = max(1, int(budget) // per_word)
    return int(min(_BFS_SOURCE_CHUNK, words * 64))


#: Largest index representable without promoting CSR arrays to ``int64``.
_INT32_LIMIT = np.iinfo(np.int32).max


def index_dtype(num_nodes: int, num_directed_edges: int) -> np.dtype:
    """The narrowest index dtype safe for a CSR of this size.

    ``indptr`` stores directed-edge offsets (up to ``num_directed_edges``)
    and ``indices`` stores node ids (up to ``num_nodes - 1``); both arrays
    share one dtype so kernels never mix widths.  Beyond ``int32`` range the
    arrays promote to ``int64`` instead of silently wrapping.
    """
    if max(num_nodes, num_directed_edges) > _INT32_LIMIT:
        return np.dtype(np.int64)
    return np.dtype(np.int32)


#: Per-source distance rows are memoized only for graphs at most this
#: large; beyond it the all-pairs table would dominate memory (paper-scale
#: fig05 builds 3200-switch graphs).
DIST_ROW_MEMO_NODE_LIMIT = 1500

#: Byte budget of the distance-row memo.
DEFAULT_DIST_MEMO_BYTES = 64 * 1024 * 1024

#: Memoized BFS distance rows, keyed by ``(csr.content_hash, source_index)``
#: so structurally equal graphs -- and successive CSR views of the same
#: mutating graph -- share rows, while any structural change produces fresh
#: keys and the stale entries age out.  Rows must own their data: a view
#: into a larger distance matrix would pin the whole matrix while only the
#: row's bytes are counted.
DIST_ROW_MEMO = Memo(
    "graphs.dist_rows", budget=DEFAULT_DIST_MEMO_BYTES, cost=attrgetter("nbytes")
)


def distance_memo_stats() -> Dict[str, int]:
    """Counts and occupancy of the distance-row memo (see :func:`memo_stats`)."""
    return memo_stats()["graphs.dist_rows"]


class CSRGraph:
    """Immutable CSR view of an undirected switch graph.

    ``indptr``/``indices`` are ``int32`` arrays storing both directions of
    every edge; ``nodes[i]`` maps index ``i`` back to the native node and
    ``index_of`` is the inverse.  ``content_hash`` is a stable
    (cross-process) SHA-1 identity of the node labels and adjacency
    structure — computed lazily on first access and cached for the view's
    lifetime, for callers that need a durable structural key (e.g. result
    stores or bench snapshots) without rehashing the edge set per use.
    Views are built by :meth:`from_arrays` only (:func:`csr_graph` and
    :meth:`repro.topologies.core.TopologyCore.csr` go through it).
    """

    __slots__ = (
        "indptr",
        "indices",
        "nodes",
        "index_of",
        "num_nodes",
        "num_edges",
        "_content_hash",
        "_adj_lists",
        "_edge_src",
        "_adj_padded",
    )

    @classmethod
    def from_arrays(
        cls,
        nodes: List[Hashable],
        index_of: Dict[Hashable, int],
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "CSRGraph":
        """Build a view from CSR arrays: the one constructor.

        Callers hand over ownership of ``nodes``/``indptr``/``indices``
        (they are not copied).  ``nodes`` must already follow this class's
        node ordering contract (sorted when orderable, insertion order
        otherwise) and ``indices`` must preserve per-row adjacency insertion
        order, so every view tie-breaks like one from :func:`csr_graph`.

        The arrays are validated against silent ``int32`` overflow: both are
        promoted to the dtype :func:`index_dtype` selects for the edge
        count, and an ``indptr`` whose final offset disagrees with
        ``len(indices)`` — the signature of a wrapped 32-bit cumulative sum
        in the builder — raises ``ValueError`` instead of producing a view
        that would index garbage.
        """
        view = cls.__new__(cls)
        indices = np.asarray(indices)
        dtype = index_dtype(len(nodes), len(indices))
        view.indptr = np.asarray(indptr, dtype=dtype)
        view.indices = np.asarray(indices, dtype=dtype)
        view.nodes = nodes
        view.index_of = index_of
        view.num_nodes = len(nodes)
        view.num_edges = len(view.indices) // 2
        if view.indptr.shape != (view.num_nodes + 1,):
            raise ValueError(
                f"indptr length {view.indptr.shape[0]} does not match "
                f"{view.num_nodes} nodes"
            )
        if view.num_nodes and int(view.indptr[-1]) != len(view.indices):
            raise ValueError(
                f"indptr[-1] = {int(view.indptr[-1])} does not match "
                f"{len(view.indices)} adjacency entries (int32 overflow in "
                "the builder?)"
            )
        view._content_hash = None
        # Lazily built adjacency forms; they live and die with this view.
        view._adj_lists = None
        view._edge_src = None
        view._adj_padded = None
        return view

    @property
    def content_hash(self) -> str:
        """Stable SHA-1 of node labels + adjacency (lazily computed)."""
        if self._content_hash is None:
            digest = hashlib.sha1()
            digest.update("\x1f".join(repr(node) for node in self.nodes).encode())
            digest.update(self.indptr.tobytes())
            digest.update(self.indices.tobytes())
            self._content_hash = digest.hexdigest()
        return self._content_hash

    def adj_lists(self) -> List[List[int]]:
        """Adjacency as plain Python int lists (fastest for scalar BFS loops)."""
        if self._adj_lists is None:
            indices = self.indices.tolist()
            indptr = self.indptr.tolist()
            self._adj_lists = [
                indices[indptr[i] : indptr[i + 1]] for i in range(self.num_nodes)
            ]
        return self._adj_lists

    def padded_adjacency(self) -> np.ndarray:
        """Adjacency rows padded to the maximum degree (lazily built, cached).

        An ``(num_nodes + 1, max_degree)`` array: row ``i`` lists node
        ``i``'s neighbours in CSR order, then the sentinel ``num_nodes``.
        The sentinel's own row is all sentinel, so gathers through the table
        stay in bounds and a sentinel entry can stand for "no node".
        """
        if self._adj_padded is None:
            n = self.num_nodes
            degrees = np.diff(self.indptr)
            table = np.full((n + 1, max(1, int(degrees.max(initial=0)))), n, dtype=np.intp)
            rows = np.repeat(np.arange(n), degrees)
            table[rows, np.arange(len(self.indices)) - self.indptr[rows]] = self.indices
            self._adj_padded = table
        return self._adj_padded

    def edge_sources(self) -> np.ndarray:
        """Source index of every directed CSR edge (``np.repeat`` of rows)."""
        if self._edge_src is None:
            degrees = np.diff(self.indptr)
            self._edge_src = np.repeat(
                np.arange(self.num_nodes, dtype=np.int32), degrees
            )
        return self._edge_src

    def hop_distance_matrix(
        self,
        source_indices: Optional[Sequence[int]] = None,
        scratch_bytes: Optional[int] = None,
    ) -> np.ndarray:
        """Hop distances from each source index to every node.

        Returns an ``int32`` array of shape ``(len(sources), num_nodes)``
        with ``-1`` for unreachable nodes; column ``i`` is ``self.nodes[i]``.
        Sources are processed in chunks sized by :func:`bfs_source_chunk`
        so the transient gather table respects ``scratch_bytes`` (default:
        the global budget); the chunking is invisible in the output.  For
        memory-bounded streaming over huge graphs — where even the output
        matrix would not fit — use :meth:`iter_hop_distance_blocks`.
        """
        if source_indices is None:
            source_indices = range(self.num_nodes)
        sources = np.asarray(list(source_indices), dtype=np.int64)
        dist = np.full((len(sources), self.num_nodes), -1, dtype=np.int32)
        chunk_size = bfs_source_chunk(self.num_nodes, len(self.indices), scratch_bytes)
        with trace(
            "bfs.batch", sources=len(sources), nodes=self.num_nodes
        ) as span:
            sweeps = 0
            for start in range(0, len(sources), chunk_size):
                chunk = sources[start : start + chunk_size]
                sweeps += self._bfs_chunk(chunk, dist[start : start + chunk_size])
            span.add(frontier_sweeps=sweeps, chunk_sources=chunk_size)
        return dist

    def iter_hop_distance_blocks(
        self,
        source_indices: Optional[Sequence[int]] = None,
        scratch_bytes: Optional[int] = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Stream BFS results as ``(chunk_sources, dist_block)`` pairs.

        The memory-bounded entry point behind the sampled estimators
        (:mod:`repro.graphs.sampling`): each yielded block holds the
        distance rows of one source chunk only, so peak memory is set by
        the scratch budget instead of ``len(sources) * num_nodes``.  Blocks
        arrive in source order; ``dist_block[i]`` is the full distance row
        of ``chunk_sources[i]``.  The caller must finish with a block
        before advancing — rows are not retained.
        """
        if source_indices is None:
            sources = np.arange(self.num_nodes, dtype=np.int64)
        else:
            sources = np.asarray(list(source_indices), dtype=np.int64)
        chunk_size = bfs_source_chunk(self.num_nodes, len(self.indices), scratch_bytes)
        for start in range(0, len(sources), chunk_size):
            chunk = sources[start : start + chunk_size]
            dist = np.full((len(chunk), self.num_nodes), -1, dtype=np.int32)
            with trace(
                "bfs.block", sources=len(chunk), nodes=self.num_nodes
            ) as span:
                span.add(frontier_sweeps=self._bfs_chunk(chunk, dist))
            yield chunk, dist

    def _bfs_chunk(self, sources: np.ndarray, dist: np.ndarray) -> int:
        """Bit-parallel frontier BFS for one chunk of sources (writes ``dist``).

        Returns the number of frontier sweeps (BFS levels) executed.
        """
        n = self.num_nodes
        num_sources = len(sources)
        if n == 0 or num_sources == 0:
            return 0
        source_pos = np.arange(num_sources)
        dist[source_pos, sources] = 0
        num_edges = len(self.indices)
        if num_edges == 0:
            return 0
        words = (num_sources + 63) // 64
        frontier = np.zeros((n, words), dtype=np.uint64)
        bit = np.uint64(1) << (source_pos % 64).astype(np.uint64)
        np.bitwise_or.at(frontier, (sources, source_pos // 64), bit)
        visited = frontier.copy()
        starts = self.indptr[:-1]
        isolated = np.diff(self.indptr) == 0
        any_isolated = bool(isolated.any())
        # One trailing zero row keeps every reduceat segment in bounds (an
        # ``indptr`` value may equal num_edges when trailing nodes are
        # isolated); OR-ing the pad into the last segment is a no-op.
        gathered = np.zeros((num_edges + 1, words), dtype=np.uint64)
        little_endian = sys.byteorder == "little"
        level = 0
        while frontier.any():
            level += 1
            # One gather + segmented OR advances BFS for all sources at once.
            np.take(frontier, self.indices, axis=0, out=gathered[:num_edges])
            neighbor_bits = np.bitwise_or.reduceat(gathered, starts, axis=0)
            if any_isolated:
                # reduceat maps an empty segment to the row at its start
                # index, which belongs to another node; zero those out.
                neighbor_bits[isolated] = 0
            new = neighbor_bits & ~visited
            visited |= new
            node_idx, word_idx = new.nonzero()
            if len(node_idx) == 0:
                break
            values = new[node_idx, word_idx]
            if little_endian:
                bits = np.unpackbits(
                    values.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
                )
                entry, bit_pos = bits.nonzero()
                dist[word_idx[entry] * 64 + bit_pos, node_idx[entry]] = level
            else:  # pragma: no cover - big-endian fallback
                for b in range(64):
                    mask = (values >> np.uint64(b)) & np.uint64(1)
                    sel = mask != 0
                    if sel.any():
                        dist[word_idx[sel] * 64 + b, node_idx[sel]] = level
            frontier = new
        return level

    def distance_row(self, source: int) -> np.ndarray:
        """Hop distances from one source index, memoized globally.

        Shares the content-hash-keyed LRU memo the metric helpers in
        :mod:`repro.graphs.properties` populate, so e.g. repeated ECMP
        enumerations from one source reuse a single BFS sweep — including
        across structurally identical CSR views.  Rows are only retained
        for graphs within ``DIST_ROW_MEMO_NODE_LIMIT`` nodes, and the memo
        itself is byte-bounded with LRU eviction.
        """
        if self.num_nodes > DIST_ROW_MEMO_NODE_LIMIT:
            return self.hop_distance_matrix([source])[0]
        key = (self.content_hash, source)
        row = DIST_ROW_MEMO.get(key)
        if row is None:
            # The one-row matrix's buffer holds exactly the row's bytes.
            row = DIST_ROW_MEMO.put(key, self.hop_distance_matrix([source])[0])
        return row

    def bfs_parent_tree(self, source: int) -> List[int]:
        """Full BFS parent tree from ``source`` (``-1`` marks unreachable).

        Parent assignments follow CSR (= networkx adjacency) order, so the
        path extracted for any target equals the one an early-exit BFS to
        that target would have produced.  Built on each call; a path table
        shares one tree among the pairs of a source
        (:func:`repro.routing.ksp.all_pairs_k_shortest_paths`).
        """
        adj = self.adj_lists()
        parents = [-1] * self.num_nodes
        parents[source] = source
        # Iterating the list while appending to it gives FIFO order.
        queue = [source]
        for u in queue:
            for v in adj[u]:
                if parents[v] < 0:
                    parents[v] = u
                    queue.append(v)
        return parents


def path_from_parent_tree(parents: Sequence[int], source: int, target: int) -> Optional[IndexPath]:
    """Extract the tree path ``source -> target``; None if unreachable."""
    if parents[target] < 0:
        return None
    if source == target:
        return (source,)
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    return tuple(reversed(path))


def _spur_paths(
    adj: np.ndarray,
    targets: np.ndarray,
    first_hops: np.ndarray,
    roots: np.ndarray,
    spur_index: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Yen candidates of one chunk of spur queries (lanes) from one BFS.

    ``adj`` is :meth:`CSRGraph.padded_adjacency` with sentinel ``n``.  Lane
    ``j`` spurs from node ``roots[j, spur_index[j]]`` of the path
    ``roots[j]`` (sentinel padded) towards ``targets[j]``: its spur path may
    not enter the root ``roots[j, :spur_index[j] + 1]``, and
    ``first_hops[j]`` lists the spur node's neighbours in adjacency order
    with banned first hops replaced by the sentinel.

    One bit-parallel BFS runs from every lane's target at once, 64 lanes per
    ``uint64`` word, with each lane's root pre-set in its visited bits.
    Level ``d`` is kept as one bitplane: the nodes at distance ``d`` from
    the lane's target in the graph minus its root.  A lane is finished at
    the first level holding one of its first hops; the BFS stops once every
    lane is finished or its frontier dies out.  FIFO BFS returns the
    shortest path whose sequence of adjacency positions is lexicographically
    smallest, so each spur path is a greedy walk down the planes: the first
    allowed first hop on the finishing level, then at every step the first
    neighbour one level closer to the target.

    Returns ``(paths, sizes)``: ``paths[j, :sizes[j]]`` is the root followed
    by the spur path, and ``sizes[j]`` is ``0`` when the lane has none.
    """
    n = adj.shape[0] - 1
    lanes, width = roots.shape
    words = (lanes + 63) // 64
    lane_ids = np.arange(lanes)
    blocked = np.where(np.arange(width) <= spur_index[:, None], roots, n)
    # Three bitplanes, (node, lane) bit ``b`` of word ``w`` being lane
    # ``64 * w + b``: visited, allowed first hops, and the targets.
    mask = np.zeros((3, n + 1, words * 64), dtype=bool)
    mask[0, blocked, lane_ids[:, None]] = True
    mask[0, n] = True  # the sentinel is never reached
    # A finished lane gets every visited bit, so its BFS stops; lanes with
    # no allowed first hop can never finish and stop at once.
    mask[0, :, lane_ids[(first_hops == n).all(axis=1)]] = True
    mask[1, first_hops, lane_ids[:, None]] = True
    mask[2, targets, lane_ids] = True
    visited, hop_plane, level = np.packbits(mask, axis=2, bitorder="little").view("<u8")
    del mask  # eight times the size of the packed planes
    planes = []
    finished = []  # per depth, the words of the lanes finishing there
    while True:
        visited |= level
        planes.append(level)
        hits = np.bitwise_or.reduce(level & hop_plane, axis=0)
        finished.append(hits)
        visited |= hits
        level = np.bitwise_or.reduce(level[adj], axis=1) & ~visited
        if not level.any():
            break

    packed = np.stack(finished).astype("<u8", copy=False).view(np.uint8)
    found = np.unpackbits(packed, axis=1, bitorder="little")[:, :lanes].view(bool)
    depth = np.where(found.any(axis=0), found.argmax(axis=0), -1)
    sizes = np.where(depth < 0, 0, spur_index + 2 + depth)
    if not sizes.any():
        return roots, sizes
    # Walk every finished lane down the planes, deepest first, so the lanes
    # still walking at each step are a prefix.  ``stack`` is flat: entry
    # (depth, node, word) sits at ``depth * stride + node * words + word``.
    order = np.argsort(-depth, kind="stable")[: np.count_nonzero(sizes)]
    deep = depth[order]
    stride = (n + 1) * words
    stack = np.concatenate(planes[: deep[0] + 1], axis=None)
    bit = np.uint64(1) << (order & 63).astype(np.uint64)[:, None]
    base = (deep * stride + (order >> 6))[:, None]
    column = spur_index[order] + 1
    paths = np.concatenate([roots, np.full((lanes, deep[0] + 1), n)], axis=1)
    for step in range(deep[0] + 1):
        live = np.count_nonzero(deep >= step)
        picks = adj[node[:live]] if step else first_hops[order]
        at = base[:live] - step * stride + picks * words
        node = picks[np.arange(live), (stack[at] & bit[:live]).argmax(axis=1)]
        paths[order[:live], column[:live] + step] = node
    return paths, sizes


def _padded(paths: Sequence[IndexPath], width: int, fill: int) -> np.ndarray:
    return np.array([path + (fill,) * (width - len(path)) for path in paths], dtype=np.intp)


def k_shortest_path_table(
    csr: CSRGraph, first_paths: Sequence[Optional[IndexPath]], k: int
) -> List[List[IndexPath]]:
    """Yen's k-shortest loopless paths for a batch of pairs, in lockstep.

    ``first_paths[q]`` is pair ``q``'s shortest path (``None`` when its
    target is unreachable); entry ``q`` of the result is the pair's paths.
    Every pair runs the same Yen round at the same time: each round gathers
    the spur queries of all pairs still short of ``k`` paths and answers
    them with one bit-parallel BFS (:func:`_spur_paths`), in chunks of
    :func:`bfs_source_chunk` lanes, so the BFS scratch budget of the active
    profile caps them.  The cap is approximate: it prices a word of lanes
    as :meth:`CSRGraph._bfs_chunk` uses it, while :func:`_spur_paths` keeps
    two node planes per BFS level and a row per lane, so its scratch grows
    with spur depth and degree skew; the round's own per-lane arrays are not
    chunked.  Removed nodes, banned first hops (from prefix equality over
    the accepted paths) and candidate rows are array operations; only the
    per-candidate dedupe, heap push and per-pair pop run in Python.

    Lawler's spur restriction applies: an accepted path only spurs from its
    own deviation index onward, since every earlier branch point was already
    spurred when the ancestor it copies that prefix from was processed.
    Candidate ties are broken by ``(length, index tuple)``; because indices
    are assigned in sorted node order this matches native node ordering.
    Results match the pre-CSR implementation path-for-path.
    """
    tables = [[path] if path is not None else [] for path in first_paths]
    ids = np.array(
        [q for q, path in enumerate(first_paths) if path is not None and len(path) > 1],
        dtype=np.intp,
    )
    if k <= 1 or not len(ids):
        return tables
    n = csr.num_nodes
    adj = csr.padded_adjacency()
    chunk = bfs_source_chunk(n, len(csr.indices))
    # Per pair: the candidates ever pushed, and the heap of those not
    # accepted yet as (length, path, deviation index).
    seen = [set() for _ in first_paths]
    heaps: List[List[Tuple[int, IndexPath, int]]] = [[] for _ in first_paths]
    # Per live pair: its accepted paths (sentinel padded), the deviation
    # index and length of the last one, and its target.
    firsts = [first_paths[q] for q in ids.tolist()]
    accepted = _padded(firsts, max(map(len, firsts)), n)[:, None, :]
    deviation = np.zeros(len(ids), dtype=np.intp)
    length = np.array([len(path) for path in firsts], dtype=np.intp)
    targets = np.array([path[-1] for path in firsts], dtype=np.intp)
    spur_queries = 0
    push = heapq.heappush
    while True:
        width = accepted.shape[2]
        previous = accepted[:, -1]
        # One lane per spur index, deviation .. len - 2, of every live pair.
        spurs = length - 1 - deviation
        pair = np.repeat(np.arange(len(ids)), spurs)
        spur_index = np.arange(len(pair)) - np.repeat(
            np.cumsum(spurs) - spurs - deviation, spurs
        )
        rows = previous[pair]
        spur_queries += len(pair)
        # Banned first hops: the next hop of every accepted path that shares
        # the lane's root previous[:spur_index + 1].  Accepted paths are distinct,
        # so each but the last first differs from previous at ``shared``.
        shared = (accepted != previous[:, None, :]).argmax(axis=2)
        shared[:, -1] = width
        banned = np.where(
            shared[pair] > spur_index[:, None], accepted[pair, :, spur_index + 1], -1
        )
        hops = adj[rows[np.arange(len(pair)), spur_index]]
        ban = hops == banned[:, :1]
        for slot in range(1, banned.shape[1]):
            ban |= hops == banned[:, slot : slot + 1]
        hops[ban] = n
        lane_targets = targets[pair]
        owners = ids[pair]
        for start in range(0, len(pair), chunk):
            part = slice(start, start + chunk)
            paths, sizes = _spur_paths(
                adj, lane_targets[part], hops[part], rows[part], spur_index[part]
            )
            reach = np.flatnonzero(sizes)
            for q, row, size, i in zip(
                owners[part][reach].tolist(),
                paths[reach].tolist(),
                sizes[reach].tolist(),
                spur_index[part][reach].tolist(),
            ):
                candidate = tuple(row[:size])
                known = seen[q]
                if candidate not in known:
                    known.add(candidate)
                    push(heaps[q], (size, candidate, i))

        keep: List[int] = []
        best: List[IndexPath] = []
        for slot, q in enumerate(ids.tolist()):
            heap = heaps[q]
            if not heap:
                continue
            size, path, i = heapq.heappop(heap)
            tables[q].append(path)
            if len(tables[q]) < k:
                keep.append(slot)
                best.append(path)
                deviation[slot] = i
                length[slot] = size
        if not keep:
            break
        width = max(width, max(map(len, best)))
        grown = np.full((len(keep), accepted.shape[1] + 1, width), n, dtype=np.intp)
        grown[:, :-1, : accepted.shape[2]] = accepted[keep]
        grown[:, -1] = _padded(best, width, n)
        accepted = grown
        ids, deviation, length, targets = ids[keep], deviation[keep], length[keep], targets[keep]
    if spur_queries:
        count("yen.spur_candidates", spur_queries)
    return tables


def k_shortest_path_indices(
    csr: CSRGraph, source: int, target: int, k: int
) -> List[IndexPath]:
    """Yen's k-shortest loopless paths for one pair over CSR index space.

    A one-pair batch of :func:`k_shortest_path_table`; the first path is the
    one :meth:`CSRGraph.bfs_parent_tree` gives.
    """
    first_path = path_from_parent_tree(csr.bfs_parent_tree(source), source, target)
    return k_shortest_path_table(csr, [first_path], k)[0]


def all_shortest_path_indices(csr: CSRGraph, source: int, target: int) -> List[IndexPath]:
    """Every shortest path between two node indices, in sorted index order."""
    if source == target:
        return [(source,)]
    dist_s = csr.distance_row(source)
    dist_t = csr.distance_row(target)
    length = int(dist_s[target])
    if length < 0:
        return []
    adj = csr.adj_lists()
    ds = dist_s.tolist()
    dt = dist_t.tolist()
    results: List[IndexPath] = []
    path = [source]
    # Iterative DFS over shortest-path edges only (ds increases, dt
    # decreases); explicit iterator stack keeps arbitrarily long paths safe.
    iterators = [iter(adj[source])]
    while iterators:
        depth = len(iterators) - 1
        advanced = False
        for v in iterators[-1]:
            if ds[v] == depth + 1 and dt[v] == length - depth - 1:
                path.append(v)
                if v == target:
                    results.append(tuple(path))
                    path.pop()
                else:
                    iterators.append(iter(adj[v]))
                    advanced = True
                    break
        if not advanced:
            iterators.pop()
            path.pop()
    results.sort()
    return results


def csr_graph(graph: nx.Graph) -> CSRGraph:
    """A new CSR view of ``graph`` (not cached; see the module docstring)."""
    try:
        nodes = sorted(graph.nodes)
    except TypeError:  # mixed unorderable node types: keep insertion order
        nodes = list(graph.nodes)
    index_of: Dict[Hashable, int] = {node: i for i, node in enumerate(nodes)}
    adjacency = graph.adj
    rows = [[index_of[neighbor] for neighbor in adjacency[node]] for node in nodes]
    dtype = index_dtype(len(nodes), 2 * graph.number_of_edges())
    indptr = np.zeros(len(nodes) + 1, dtype=dtype)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(rows), dtype=dtype, count=int(indptr[-1]))
    return CSRGraph.from_arrays(nodes, index_of, indptr, indices)
