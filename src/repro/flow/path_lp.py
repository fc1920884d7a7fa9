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

:class:`PathLPStructure` holds the directed arcs and their capacities, read
from :func:`repro.simulation.capacity.link_capacities` (the table every
engine prices links from), and assembles each matrix's constraint matrices
from vectorized COO triplets (no ``lil_matrix``, no per-cell writes).  The
path table it reads is the shared, content-hashed one
(:func:`repro.routing.paths.shared_path_set`); the structure and each
matrix's path→arc triplets are rebuilt per solve.  The canonical CSR
matrices produced here are bit-for-bit identical to the historical
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

:func:`path_lp_thetas` evaluates several traffic matrices over one topology
as one batch: one routing call for the union of their pairs, one structure,
and the LPs solved concurrently.  HiGHS releases the interpreter lock while
it solves, so the calling thread and, given a second CPU, one helper
thread (:func:`repro.resources.helper_threads`) solve in parallel.  Each
LP is the one a serial loop would solve, so every theta is unchanged.
"""

from __future__ import annotations

import queue
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.flow.mcf import FlowSolverError
from repro.resources import helper_threads
from repro.simulation.capacity import DirectedLink, link_capacities
from repro.telemetry import in_current_span, trace
from repro.routing.paths import PathSet, shared_path_set
from repro.topologies.base import Topology
from repro.traffic.matrices import SwitchDemandArrays, TrafficMatrix

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

    Built from the topology's
    :func:`~repro.simulation.capacity.link_capacities` table: ``arc_index``
    numbers the directed arcs in table order, one capacity row each, and
    ``capacities`` is their capacity vector (``b_ub``).  The path columns
    and the theta column are assembled per traffic matrix, so one structure
    can solve several matrices over one topology.
    """

    def __init__(self, capacities: Dict[DirectedLink, float]):
        self.num_arcs = len(capacities)
        self.arc_index = {arc: i for i, arc in enumerate(capacities)}
        self.capacities = np.fromiter(capacities.values(), dtype=np.float64)

    def assemble(self, arrays: SwitchDemandArrays, path_set: PathSet) -> tuple:
        """Vectorized COO assembly for one traffic matrix.

        ``arrays`` is the matrix's
        :meth:`~repro.traffic.matrices.TrafficMatrix.as_switch_array` form:
        one equality row per demanded pair, in ``arrays.pairs`` order, with
        ``arrays.rates`` as the theta column.  Returns ``(a_eq, b_eq, a_ub,
        b_ub, num_vars)``; the matrices are canonical CSR, equal to the
        reference ``lil_matrix`` assembly.
        """
        with trace("lp.assemble") as span:
            assembled = self._assemble(arrays, path_set)
            span.add(
                pairs=len(arrays.pairs),
                vars=assembled[-1],
                nnz=int(assembled[0].nnz + assembled[2].nnz),
            )
        return assembled

    def _assemble(self, arrays: SwitchDemandArrays, path_set: PathSet) -> tuple:
        pairs = arrays.pairs
        num_pairs = len(pairs)
        arc_index = self.arc_index
        counts = np.empty(num_pairs, dtype=np.int64)
        # One (arc row, path column) triplet per hop of every candidate path.
        ub_rows: List[int] = []
        ub_cols: List[int] = []
        offset = 0
        for i, pair in enumerate(pairs):
            options = path_set.get(pair)
            if not options:
                raise FlowSolverError(f"no candidate path for demanded pair {pair!r}")
            for column, path in enumerate(options, offset):
                ub_rows.extend([arc_index[arc] for arc in zip(path, path[1:])])
                ub_cols.extend([column] * (len(path) - 1))
            counts[i] = len(options)
            offset += len(options)
        num_path_vars = offset
        theta_var = num_path_vars
        num_vars = num_path_vars + 1

        # Equality rows: one 1.0 per path variable in its pair's row, plus
        # the theta column (-demand).  Zero demands are filtered to mirror
        # lil_matrix, which drops explicit zero writes.
        theta_data = -arrays.rates
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
        a_ub = csr_matrix(
            (
                np.ones(len(ub_rows)),
                (np.asarray(ub_rows, dtype=np.int64), np.asarray(ub_cols, dtype=np.int64)),
            ),
            shape=(self.num_arcs, num_vars),
        )
        return a_eq, b_eq, a_ub, self.capacities, num_vars

    def solve(self, arrays: SwitchDemandArrays, path_set: PathSet) -> float:
        """Concurrent-flow factor theta for one traffic matrix.

        One HiGHS solve whose method follows the assembled LP's size: IPM
        with crossover from :data:`IPM_MIN_NNZ` nonzeros up, dual simplex
        below.  A solve that ends short of optimality is retried once with
        the other method; :class:`FlowSolverError` is raised only when both
        fail.
        """
        a_eq, b_eq, a_ub, b_ub, num_vars = self.assemble(arrays, path_set)
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

    def solve_decision(self, arrays: SwitchDemandArrays, path_set: PathSet) -> float:
        """Theta for the full-line-rate decision: the same solve as :meth:`solve`.

        Decisions and reported theta values share one LP and one method, so
        a decision always equals the one :meth:`solve`'s theta implies.  It
        stays a separate entry point so that decision solves can be counted
        apart from theta evaluations.
        """
        return self.solve(arrays, path_set)


def shared_path_lp_structure(capacities: Dict[DirectedLink, float]) -> PathLPStructure:
    """The :class:`PathLPStructure` the throughput harness solves over ``capacities``.

    A fresh structure per call.  It stays the harness's one constructor
    call so that structure builds can be timed apart from assembly and
    solves by wrapping this name (as ``benchmarks/e2e/layers.py`` does).
    """
    return PathLPStructure(capacities)


def max_concurrent_flow_path_lp(
    topology: Topology,
    traffic: TrafficMatrix,
    path_set: Optional[PathSet] = None,
    k: int = 8,
) -> float:
    """Concurrent-flow factor ``theta`` restricted to a candidate path set.

    The batch of one of :func:`path_lp_thetas`, so it starts no thread.
    If ``path_set`` is omitted, the k shortest paths for every demanded
    switch pair come from the shared content-hashed path table
    (:func:`repro.routing.paths.shared_path_set`), so evaluating several
    traffic matrices against one topology routes each switch pair once.
    """
    (theta,) = path_lp_thetas(topology, [traffic], path_set=path_set, k=k)
    return theta


def path_lp_thetas(
    topology: Topology,
    matrices: Sequence[TrafficMatrix],
    path_set: Optional[PathSet] = None,
    k: int = 8,
) -> List[float]:
    """Concurrent-flow factor ``theta`` of each traffic matrix, in order.

    A matrix that demands no pair of distinct switches gets ``inf``.
    Unless ``path_set`` is given, the union of the demanded switch pairs is
    routed with one :func:`~repro.routing.paths.shared_path_set` call, so
    a pair several matrices demand is routed once.  One
    :class:`PathLPStructure` serves every matrix, and the LPs are solved
    concurrently (:func:`_solve_concurrently`).
    """
    csr = topology.csr()
    batch = [traffic.as_switch_array(csr.index_of) for traffic in matrices]
    demanded = [arrays for arrays in batch if arrays.pairs]
    if not demanded:
        return [float("inf")] * len(batch)
    if path_set is None:
        pairs = list(dict.fromkeys(pair for arrays in demanded for pair in arrays.pairs))
        path_set = shared_path_set(csr, pairs, scheme="ksp", k=k)
    structure = shared_path_lp_structure(link_capacities(topology))
    solved = iter(_solve_concurrently(structure, demanded, path_set))
    return [next(solved) if arrays.pairs else float("inf") for arrays in batch]


def _solve_concurrently(
    structure: PathLPStructure, batch: List[SwitchDemandArrays], path_set: PathSet
) -> List[float]:
    """:meth:`PathLPStructure.solve` of every matrix in ``batch``, in order.

    The calling thread and :func:`~repro.resources.helper_threads` helpers
    take the LPs from one queue until it is empty, so a batch of one starts
    no thread.  The pool lives for this call only: no thread outlives it in
    a process that the sweep runner may fork workers from.  A solve's
    error is raised here, on the calling thread.  A thread whose solve
    raises (or that is interrupted) empties the queue first, so, as in a
    serial loop, no LP starts after the error: the other threads finish
    the one they are solving and stop.
    """
    thetas = [0.0] * len(batch)
    pending: "queue.SimpleQueue[int]" = queue.SimpleQueue()
    for index in range(len(batch)):
        pending.put(index)

    def drain() -> None:
        try:
            while True:
                try:
                    index = pending.get_nowait()
                except queue.Empty:
                    return
                thetas[index] = structure.solve(batch[index], path_set)
        except BaseException:
            try:
                while True:
                    pending.get_nowait()
            except queue.Empty:
                pass
            raise

    helpers = helper_threads(len(batch))
    if not helpers:
        drain()
        return thetas
    with ThreadPoolExecutor(max_workers=helpers) as pool:
        futures = [pool.submit(in_current_span(drain)) for _ in range(helpers)]
        drain()
        for future in futures:
            future.result()
    return thetas
