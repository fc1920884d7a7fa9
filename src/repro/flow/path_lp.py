"""Path-based max-concurrent-flow LP.

The edge-based LP in :mod:`repro.flow.mcf` is exact but grows as
``sources x arcs``; for the larger topologies in the evaluation we use a
path-based restriction: each switch pair may split its demand over its k
shortest paths.  With a generous k this is an excellent approximation of the
optimum (and a guaranteed lower bound); the test suite cross-validates it
against the exact LP on small graphs.

Formulation: variable ``x[p]`` is the flow on path ``p``; ``theta`` the
concurrent-flow factor.  For every pair: ``sum_{p in P(pair)} x[p] =
theta * demand(pair)``; for every directed arc: ``sum_{p using arc} x[p] <=
capacity``; maximize ``theta``.

The LP splits into demand-independent structure and per-matrix demand rows.
:class:`PathLPStructure` owns the structure — directed arcs, capacities and
per-pair path→arc column blocks — and assembles each matrix's constraint
matrices from vectorized COO triplets (no ``lil_matrix``, no per-cell
writes).  Structures are cached in a small LRU keyed by the graph's CSR
``content_hash`` (the same content-addressing as the engine's result
cache), so a throughput sweep that probes one topology against several
traffic matrices only rebuilds the theta column per matrix.  The canonical
CSR matrices produced here are bit-for-bit identical to the historical
cell-by-cell assembly (the oracle in ``tests/oracles/flow.py``).

The LP's size, not its caller, picks the HiGHS method: dual simplex below
:data:`IPM_MIN_NNZ` constraint nonzeros, the interior-point method with
crossover at or above it.  These LPs are highly degenerate, so simplex
pivot counts grow quickly with size (about 3,500 on a 100-switch fig04
Jellyfish LP) while IPM takes about 20 iterations; on small LPs simplex
wins because IPM's fixed cost dominates.  Crossover returns a vertex, so
theta agrees with dual simplex to about 1e-10 relative; without it the
interior point is off by up to 2e-8.  Theta values and full-rate decisions
share this one solve.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.flow.mcf import FlowSolverError, _directed_arcs
from repro.graphs.csr import csr_graph
from repro.memo import Memo
from repro.telemetry import trace
from repro.routing.paths import PathSet, shared_path_set
from repro.topologies.base import Topology
from repro.traffic.matrices import TrafficMatrix

#: Content-hash-keyed LRU of demand-independent LP structures.
_SHARED_STRUCTURES = Memo("flow.lp_structures", max_entries=8)

#: LPs with at least this many nonzeros in ``a_eq`` and ``a_ub`` together
#: (the ``nnz`` that ``lp.assemble`` reports) are solved by IPM, smaller
#: ones by dual simplex.  Re-solving the LPs of the fig02c/03/04/06/08/14
#: workloads with both methods, simplex won 139 of 141 LPs under 2,000
#: nonzeros and IPM won about 3 in 4 above it, by up to 3.7x on the
#: largest.  No LP fell between 1,250 and 2,000 nonzeros, so every
#: threshold in that range gives the same least total solve time.
IPM_MIN_NNZ = 1500


class PathLPStructure:
    """Demand-independent blocks of the path LP for one topology.

    Holds the directed-arc enumeration, the capacity vector (``b_ub``), and
    a lazily grown per-pair cache of path→arc incidence triplets.  Only the
    equality rows' theta column depends on the traffic matrix, so repeated
    solves over one topology reuse everything else.
    """

    def __init__(self, topology: Topology, scheme: str = "ksp", k: int = 8):
        self.scheme = scheme
        self.k = k
        self.arcs = _directed_arcs(topology)
        self.num_arcs = len(self.arcs)
        self.arc_index = {(u, v): i for i, (u, v, _) in enumerate(self.arcs)}
        self.capacities = np.asarray(
            [capacity for (_, _, capacity) in self.arcs], dtype=np.float64
        )
        # pair -> (num_paths, arc row ids, column ids local to the pair block)
        self._pair_blocks: Dict[Tuple, Tuple[int, np.ndarray, np.ndarray]] = {}

    def matches(self, topology: Topology) -> bool:
        """True if this structure still describes ``topology``'s arcs exactly.

        Guards the content-hash cache against the (contrived) case of two
        graphs with equal adjacency hash but different edge iteration order
        or capacities — arc order defines LP row order, which must match.
        """
        return self.arcs == _directed_arcs(topology)

    def _pair_block(
        self, pair: Tuple, path_set: PathSet
    ) -> Tuple[int, np.ndarray, np.ndarray]:
        block = self._pair_blocks.get(pair)
        if block is None:
            options = path_set.get(pair)
            if not options:
                raise FlowSolverError(f"no candidate path for demanded pair {pair!r}")
            arc_index = self.arc_index
            rows = [
                arc_index[(u, v)]
                for path in options
                for u, v in zip(path, path[1:])
            ]
            cols = [
                column
                for column, path in enumerate(options)
                for _ in range(len(path) - 1)
            ]
            block = (
                len(options),
                np.asarray(rows, dtype=np.int64),
                np.asarray(cols, dtype=np.int64),
            )
            self._pair_blocks[pair] = block
        return block

    def assemble(
        self, demands: Dict, path_set: PathSet, rates: Optional[np.ndarray] = None
    ) -> tuple:
        """Vectorized COO assembly for one traffic matrix.

        Returns ``(a_eq, b_eq, a_ub, b_ub, num_vars)``; the matrices are
        canonical CSR, equal to the reference ``lil_matrix`` assembly.
        ``rates``, when given, must hold ``demands``' values in key order
        (the cached :meth:`~repro.traffic.matrices.TrafficMatrix.as_switch_array`
        form) and skips the per-pair dict walk for the theta column.
        """
        with trace("lp.assemble") as span:
            assembled = self._assemble(demands, path_set, rates)
            span.add(
                pairs=len(demands),
                vars=assembled[-1],
                nnz=int(assembled[0].nnz + assembled[2].nnz),
            )
        return assembled

    def _assemble(
        self, demands: Dict, path_set: PathSet, rates: Optional[np.ndarray] = None
    ) -> tuple:
        pairs = list(demands)
        num_pairs = len(pairs)
        counts = np.empty(num_pairs, dtype=np.int64)
        row_parts = []
        col_parts = []
        offset = 0
        for i, pair in enumerate(pairs):
            num_paths, rows, cols = self._pair_block(pair, path_set)
            counts[i] = num_paths
            row_parts.append(rows)
            col_parts.append(cols + offset)
            offset += num_paths
        num_path_vars = int(offset)
        theta_var = num_path_vars
        num_vars = num_path_vars + 1

        # Equality rows: one 1.0 per path variable in its pair's row, plus
        # the theta column (-demand).  Zero demands are filtered to mirror
        # lil_matrix, which drops explicit zero writes.
        if rates is not None:
            theta_data = -np.asarray(rates, dtype=np.float64)
        else:
            theta_data = np.asarray(
                [-demands[pair] for pair in pairs], dtype=np.float64
            )
        theta_rows = np.arange(num_pairs, dtype=np.int64)
        nonzero = theta_data != 0.0
        a_eq = csr_matrix(
            (
                np.concatenate((np.ones(num_path_vars), theta_data[nonzero])),
                (
                    np.concatenate(
                        (np.repeat(theta_rows, counts), theta_rows[nonzero])
                    ),
                    np.concatenate(
                        (
                            np.arange(num_path_vars, dtype=np.int64),
                            np.full(int(nonzero.sum()), theta_var, dtype=np.int64),
                        )
                    ),
                ),
            ),
            shape=(num_pairs, num_vars),
        )
        b_eq = np.zeros(num_pairs)

        # Capacity rows: one 1.0 per (arc on path, path variable); duplicate
        # traversals sum on conversion to canonical CSR.
        if row_parts:
            ub_rows = np.concatenate(row_parts)
            ub_cols = np.concatenate(col_parts)
        else:
            ub_rows = np.empty(0, dtype=np.int64)
            ub_cols = np.empty(0, dtype=np.int64)
        a_ub = csr_matrix(
            (np.ones(len(ub_rows)), (ub_rows, ub_cols)),
            shape=(self.num_arcs, num_vars),
        )
        return a_eq, b_eq, a_ub, self.capacities, num_vars

    def solve(
        self, demands: Dict, path_set: PathSet, rates: Optional[np.ndarray] = None
    ) -> float:
        """Concurrent-flow factor theta for one traffic matrix.

        One HiGHS solve whose method follows the assembled LP's size: IPM
        with crossover from :data:`IPM_MIN_NNZ` nonzeros up, dual simplex
        below.  A solve that ends short of optimality is retried once with
        the other method; :class:`FlowSolverError` is raised only when both
        fail.
        """
        a_eq, b_eq, a_ub, b_ub, num_vars = self.assemble(demands, path_set, rates)
        objective = np.zeros(num_vars)
        objective[num_vars - 1] = -1.0
        methods = ("highs-ds", "highs-ipm")
        if a_eq.nnz + a_ub.nnz >= IPM_MIN_NNZ:
            methods = methods[::-1]
        for method in methods:
            with trace("lp.solve", method=method) as span:
                result = linprog(
                    objective,
                    A_ub=a_ub,
                    b_ub=b_ub,
                    A_eq=a_eq,
                    b_eq=b_eq,
                    bounds=(0, None),
                    method=method,
                )
                span.add(
                    iterations=int(getattr(result, "nit", 0) or 0),
                    crossover_iterations=int(getattr(result, "crossover_nit", 0) or 0),
                    success=bool(result.success),
                )
            if result.success:
                return float(result.x[num_vars - 1])
        raise FlowSolverError(f"LP solver failed: {result.message}")

    def solve_decision(
        self, demands: Dict, path_set: PathSet, rates: Optional[np.ndarray] = None
    ) -> float:
        """Theta for the full-line-rate decision: the same solve as :meth:`solve`.

        Decisions and reported theta values share one LP and one method, so
        a decision always equals the one :meth:`solve`'s theta implies.  It
        stays a separate entry point so that decision solves can be counted
        apart from theta evaluations.
        """
        return self.solve(demands, path_set, rates)


def shared_path_lp_structure(
    topology: Topology, scheme: str = "ksp", k: int = 8
) -> PathLPStructure:
    """Get-or-build the cached :class:`PathLPStructure` for ``topology``.

    Keyed by the graph's CSR ``content_hash`` plus ``(scheme, k)`` and
    revalidated against the topology's current arcs, so in-place mutations
    (e.g. failure injection on a copy that shares a hash) never reuse stale
    structure.
    """
    key = (csr_graph(topology.graph).content_hash, scheme, k)
    structure = _SHARED_STRUCTURES.get(key)
    if structure is not None and structure.matches(topology):
        return structure
    return _SHARED_STRUCTURES.put(key, PathLPStructure(topology, scheme=scheme, k=k))


def max_concurrent_flow_path_lp(
    topology: Topology,
    traffic: TrafficMatrix,
    path_set: Optional[PathSet] = None,
    k: int = 8,
) -> float:
    """Concurrent-flow factor ``theta`` restricted to a candidate path set.

    If ``path_set`` is omitted, the k shortest paths for every demanded
    switch pair come from the shared content-hashed path table
    (:func:`repro.routing.paths.shared_path_set`) and the LP reuses the
    topology's cached demand-independent structure, so evaluating several
    traffic matrices against one topology only rebuilds the demand rows.
    """
    demands = traffic.switch_pairs()
    if not demands:
        return float("inf")

    arrays = traffic.as_switch_array(csr_graph(topology.graph).index_of)
    if path_set is None:
        structure = shared_path_lp_structure(topology, scheme="ksp", k=k)
        path_set = shared_path_set(topology.graph, arrays.pairs, scheme="ksp", k=k)
    else:
        structure = PathLPStructure(topology, scheme=path_set.kind, k=k)
    return structure.solve(demands, path_set, rates=arrays.rates)
