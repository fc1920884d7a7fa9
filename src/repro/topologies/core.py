"""Array-native topology core.

A :class:`TopologyCore` is the columnar representation of a switch-level
topology: a node-label list, insertion-ordered adjacency rows in index
space, and aligned ``int32`` port/server vectors.  It is what the
constructors in :mod:`repro.graphs.regular` produce natively and what
bridges straight into the CSR kernels (:meth:`TopologyCore.csr`) without
ever materializing a ``networkx`` graph.

Invariants (also documented in ``docs/engine.md``):

* ``labels[i]`` is the node at index ``i``; ``index_of`` is the exact
  inverse.  Label order is graph *insertion* order -- the order an
  equivalent ``nx.Graph`` would iterate its nodes.
* ``rows[i]`` lists the neighbors of node ``i`` as indices, in the exact
  adjacency insertion order the equivalent ``add_edge``/``remove_edge``
  history would have left in a live ``nx.Graph``.  CSR row order -- and
  therefore every discovery-order tie-break in BFS/KSP -- is defined by it.
* ``ports`` / ``servers`` are ``int32`` arrays aligned with ``labels``;
  ``ports[i] >= degree(i) + servers[i]`` (checked by :meth:`validate`).
* :attr:`content_hash` is canonical: it depends only on the labeled
  structure (which nodes, which edges, which port/server counts), not on
  construction history or adjacency order, so two cores describing the
  same topology hash identically even when their tie-break orders differ.
* A core is built once and then only read.  Every change to a topology is
  a :class:`~repro.topologies.base.Topology` method that edits the
  ``networkx`` graph and drops the core; :meth:`Topology.core` derives a
  fresh one from the changed graph.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

import networkx as nx
import numpy as np

from repro.graphs.csr import CSRGraph, adopt_csr_view, index_dtype
from repro.graphs.regular import graph_from_rows


class TopologyError(ValueError):
    """Raised when a topology violates its own port budget or invariants."""


class TopologyCore:
    """Columnar switch-level topology: labels, adjacency rows, port vectors."""

    __slots__ = (
        "labels",
        "index_of",
        "rows",
        "ports",
        "servers",
        "num_nodes",
        "_degrees",
        "_csr",
        "_content_hash",
    )

    def __init__(
        self,
        labels: Iterable[Hashable],
        rows: List[Sequence[int]],
        ports,
        servers,
    ) -> None:
        self.labels = list(labels)
        self.rows = rows
        self.index_of: Dict[Hashable, int] = {
            label: i for i, label in enumerate(self.labels)
        }
        self.num_nodes = len(self.labels)
        self.ports = np.ascontiguousarray(ports, dtype=np.int32)
        self.servers = np.ascontiguousarray(servers, dtype=np.int32)
        if len(self.rows) != self.num_nodes:
            raise TopologyError(
                f"adjacency rows ({len(self.rows)}) do not match labels "
                f"({self.num_nodes})"
            )
        if self.ports.shape != (self.num_nodes,) or self.servers.shape != (
            self.num_nodes,
        ):
            raise TopologyError("ports/servers arrays must align with labels")
        self._degrees: Optional[np.ndarray] = None
        self._csr: Optional[CSRGraph] = None
        self._content_hash: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(
        cls,
        graph: nx.Graph,
        ports: Dict[Hashable, int],
        servers: Optional[Dict[Hashable, int]] = None,
    ) -> "TopologyCore":
        """Derive a core from a live ``nx.Graph`` plus port/server dicts."""
        labels = list(graph.nodes)
        index_of = {label: i for i, label in enumerate(labels)}
        rows = [
            [index_of[neighbor] for neighbor in graph.adj[label]]
            for label in labels
        ]
        servers = servers or {}
        return cls(
            labels,
            rows,
            [ports[label] for label in labels],
            [servers.get(label, 0) for label in labels],
        )

    def copy(self) -> "TopologyCore":
        """Independent copy (rows and vectors are duplicated; order kept)."""
        clone = TopologyCore.__new__(TopologyCore)
        clone.labels = list(self.labels)
        clone.index_of = dict(self.index_of)
        clone.rows = [list(row) for row in self.rows]
        clone.ports = self.ports.copy()
        clone.servers = self.servers.copy()
        clone.num_nodes = self.num_nodes
        clone._degrees = None
        clone._csr = None
        clone._content_hash = self._content_hash
        return clone

    def copy_as_graph_copy(self) -> "TopologyCore":
        """Copy with adjacency rows reordered the way ``nx.Graph.copy`` would.

        ``nx.Graph.copy`` rebuilds adjacency by replaying ``add_edges_from``
        over the u-major edge iteration, which *changes* interleaved
        insertion order -- and the historical evaluation pipeline (failure
        injection copies the topology before routing) tie-breaks on that
        reordered adjacency.  :meth:`repro.topologies.base.Topology.copy`
        uses this variant so core-backed copies stay bit-identical to the
        graph-backed path.
        """
        clone = self.copy()
        rows: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for u, row in enumerate(self.rows):
            for v in row:
                if v > u:
                    rows[u].append(v)
                    rows[v].append(u)
        clone.rows = rows
        return clone

    # ------------------------------------------------------------------ #
    # Vectorized accounting
    # ------------------------------------------------------------------ #
    def degrees(self) -> np.ndarray:
        """Network degree of every node (``int32``, aligned with labels)."""
        if self._degrees is None:
            self._degrees = np.fromiter(
                (len(row) for row in self.rows), dtype=np.int32, count=self.num_nodes
            )
        return self._degrees

    @property
    def num_edges(self) -> int:
        return int(self.degrees().sum()) // 2

    def free_ports_array(self) -> np.ndarray:
        """Unused ports per node: ``ports - degree - servers``."""
        return self.ports - self.degrees() - self.servers

    def validate(self) -> None:
        """Vectorized port-budget check; raises :class:`TopologyError`."""
        overdrawn = np.flatnonzero(self.free_ports_array() < 0)
        if overdrawn.size:
            index = int(overdrawn[0])
            used = int(self.degrees()[index] + self.servers[index])
            raise TopologyError(
                f"switch {self.labels[index]!r} uses {used} ports but only has "
                f"{int(self.ports[index])}"
            )
        if np.any(self.servers < 0):
            index = int(np.flatnonzero(self.servers < 0)[0])
            raise TopologyError(f"negative server count on {self.labels[index]!r}")

    # ------------------------------------------------------------------ #
    # Edge arrays and derived structures
    # ------------------------------------------------------------------ #
    def edge_array(self) -> np.ndarray:
        """Undirected edges as an ``(E, 2) int32`` index array.

        Edge order and orientation follow ``nx.Graph.edges`` iteration of
        the equivalent graph: ordered by the lower endpoint's index, within
        a row by adjacency insertion order.
        """
        pairs = [
            (u, v) for u, row in enumerate(self.rows) for v in row if v > u
        ]
        if not pairs:
            return np.empty((0, 2), dtype=np.int32)
        return np.asarray(pairs, dtype=np.int32)

    def csr(self, build: bool = True) -> Optional[CSRGraph]:
        """The :class:`CSRGraph` view of this core (built once, cached).

        Node order follows the CSR contract (sorted labels when orderable,
        insertion order otherwise); per-row adjacency order is taken from
        ``rows`` verbatim, so kernels tie-break exactly as they would on the
        materialized graph.
        """
        if self._csr is None:
            if not build:
                return None
            self._csr = self._build_csr()
        return self._csr

    def _build_csr(self) -> CSRGraph:
        try:
            nodes = sorted(self.labels)
            is_sorted = nodes == self.labels
        except TypeError:
            nodes = list(self.labels)
            is_sorted = True
        n = self.num_nodes
        # Promote to int64 before the cumulative sum when the directed edge
        # count could overflow int32 offsets (see repro.graphs.csr.index_dtype).
        dtype = index_dtype(n, int(self.degrees().sum(dtype=np.int64)))
        indptr = np.zeros(n + 1, dtype=dtype)
        np.cumsum(self.degrees(), out=indptr[1:])
        if is_sorted:
            total = int(indptr[-1])
            indices = np.fromiter(
                chain.from_iterable(self.rows), dtype=dtype, count=total
            )
            return CSRGraph.from_arrays(nodes, dict(self.index_of), indptr, indices)
        # Labels are orderable but not in sorted order: remap rows into the
        # CSR's sorted-index space, preserving per-row adjacency order.
        index_of = {node: i for i, node in enumerate(nodes)}
        perm = [index_of[label] for label in self.labels]
        inverse = [0] * n
        for original, csr_index in enumerate(perm):
            inverse[csr_index] = original
        flat: List[int] = []
        indptr = np.zeros(n + 1, dtype=dtype)
        for csr_index in range(n):
            row = self.rows[inverse[csr_index]]
            flat.extend(perm[j] for j in row)
            indptr[csr_index + 1] = indptr[csr_index] + len(row)
        indices = np.asarray(flat, dtype=dtype)
        return CSRGraph.from_arrays(nodes, index_of, indptr, indices)

    def to_networkx(self) -> nx.Graph:
        """Materialize the equivalent ``nx.Graph`` (exact adjacency order).

        If this core's CSR view was already built, the new graph adopts it
        (see :func:`repro.graphs.csr.adopt_csr_view`), so downstream
        ``csr_graph(graph)`` calls skip the rebuild.
        """
        graph = graph_from_rows(self.labels, self.rows)
        if self._csr is not None:
            adopt_csr_view(graph, self._csr)
        return graph

    # ------------------------------------------------------------------ #
    # Content addressing
    # ------------------------------------------------------------------ #
    @property
    def content_hash(self) -> str:
        """Canonical sha256 of the labeled structure (order-independent).

        Nodes are canonicalized by ``repr`` order and edges by their sorted
        canonical index pairs, so the hash is invariant under construction
        history and adjacency insertion order -- two topologies hash equal
        iff they have the same labeled nodes, port/server counts and edge
        set.
        """
        if self._content_hash is None:
            n = self.num_nodes
            order = sorted(range(n), key=lambda i: repr(self.labels[i]))
            rank = np.empty(max(n, 1), dtype=np.int64)
            rank[order] = np.arange(n, dtype=np.int64)
            digest = hashlib.sha256()
            digest.update(str(n).encode())
            digest.update(
                "\x1f".join(repr(self.labels[i]) for i in order).encode()
            )
            digest.update(self.ports[order].astype("<i4").tobytes())
            digest.update(self.servers[order].astype("<i4").tobytes())
            edges = self.edge_array()
            if len(edges):
                a = rank[edges[:, 0]]
                b = rank[edges[:, 1]]
                keys = np.minimum(a, b) * np.int64(n) + np.maximum(a, b)
                keys.sort()
                digest.update(keys.astype("<i8").tobytes())
            self._content_hash = digest.hexdigest()
        return self._content_hash

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"<TopologyCore: {self.num_nodes} nodes, {self.num_edges} edges, "
            f"{int(self.servers.sum())} servers>"
        )
