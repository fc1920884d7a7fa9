"""Exact max-concurrent-flow LP (edge-based formulation).

This reproduces the paper's "optimal routing" evaluation: given a topology
and a traffic matrix, find the largest scaling factor theta such that
theta times every demand can be routed simultaneously without exceeding any
link capacity, treating flows as splittable fluids.  The paper solves this
with CPLEX; we solve the identical LP with scipy's HiGHS backend.

Formulation (source-aggregated multi-commodity flow):

* every undirected link becomes two directed arcs of the same capacity,
  read from :func:`repro.simulation.capacity.link_capacities`;
* commodities are grouped by source switch ``s``; variable ``f[s, a]`` is the
  amount of commodity-group ``s`` flow on arc ``a``;
* flow conservation at node ``v`` for group ``s``:
  ``inflow - outflow = theta * demand(s, v)`` for ``v != s`` and
  ``outflow - inflow = theta * total_demand(s)`` for ``v == s``;
* capacity: ``sum_s f[s, a] <= capacity(a)``;
* objective: maximize ``theta``.

Constraint matrices are assembled as vectorized COO triplets (one broadcast
per block, no per-cell writes); the resulting canonical CSR is identical to
the historical ``lil_matrix`` assembly (the oracle in
``tests/oracles/flow.py``), so HiGHS sees the same problem bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, Hashable

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.simulation.capacity import link_capacities
from repro.topologies.base import Topology
from repro.traffic.matrices import TrafficMatrix


class FlowSolverError(RuntimeError):
    """Raised when the LP solver fails to find an optimal solution."""


def _assemble_edge_lp(topology: Topology, demands: Dict) -> tuple:
    """Vectorized COO assembly of the edge LP.

    Returns ``(a_eq, b_eq, a_ub, b_ub, num_vars)`` with canonical CSR
    matrices equal to the reference ``lil_matrix`` assembly.
    """
    capacities = link_capacities(topology)
    if not capacities:
        raise FlowSolverError("topology has no links but traffic crosses switches")
    nodes = list(topology.graph.nodes)
    node_index = {node: i for i, node in enumerate(nodes)}

    sources = sorted({src for src, _ in demands}, key=str)
    source_index = {src: i for i, src in enumerate(sources)}
    num_arcs = len(capacities)
    num_sources = len(sources)
    num_nodes = len(nodes)

    # Variables: f[s, a] for every source group and arc, then theta (last).
    num_flow_vars = num_sources * num_arcs
    theta_var = num_flow_vars
    num_vars = num_flow_vars + 1

    arc_u = np.asarray([node_index[u] for u, _ in capacities], dtype=np.int64)
    arc_v = np.asarray([node_index[v] for _, v in capacities], dtype=np.int64)
    arc_caps = np.fromiter(capacities.values(), dtype=np.float64)
    source_offsets = np.arange(num_sources, dtype=np.int64)

    # Conservation entries: for each (source block, arc) column, -1 at the
    # arc's tail row and +1 at its head row.
    columns = (
        source_offsets[:, None] * num_arcs + np.arange(num_arcs, dtype=np.int64)
    ).ravel()
    tail_rows = (source_offsets[:, None] * num_nodes + arc_u[None, :]).ravel()
    head_rows = (source_offsets[:, None] * num_nodes + arc_v[None, :]).ravel()

    # Theta column: +total_demand(s) at (s, s), -demand(s, node) elsewhere.
    # Only nonzero entries are materialized, matching lil (which drops
    # explicit zero writes).
    theta_values = np.zeros((num_sources, num_nodes), dtype=np.float64)
    totals: Dict[Hashable, float] = {s: 0.0 for s in sources}
    for (src, dst), rate in demands.items():
        theta_values[source_index[src], node_index[dst]] -= rate
        totals[src] += rate
    for src in sources:
        theta_values[source_index[src], node_index[src]] = totals[src]
    theta_rows = np.flatnonzero(theta_values.ravel())
    theta_data = theta_values.ravel()[theta_rows]

    a_eq = csr_matrix(
        (
            np.concatenate(
                (
                    np.full(len(columns), -1.0),
                    np.full(len(columns), 1.0),
                    theta_data,
                )
            ),
            (
                np.concatenate((tail_rows, head_rows, theta_rows)),
                np.concatenate(
                    (columns, columns, np.full(len(theta_rows), theta_var))
                ),
            ),
        ),
        shape=(num_sources * num_nodes, num_vars),
    )
    b_eq = np.zeros(num_sources * num_nodes)

    # Capacity rows: one 1.0 per (arc row, f[s, arc] column).
    a_ub = csr_matrix(
        (
            np.ones(num_flow_vars),
            (
                np.tile(np.arange(num_arcs, dtype=np.int64), num_sources),
                columns,
            ),
        ),
        shape=(num_arcs, num_vars),
    )
    return a_eq, b_eq, a_ub, arc_caps, num_vars


def max_concurrent_flow_edge_lp(
    topology: Topology, traffic: TrafficMatrix
) -> float:
    """Return the optimal concurrent-flow scaling factor ``theta``.

    ``theta >= 1`` means the topology supports the full traffic matrix at
    line rate under ideal (splittable, fluid) routing.
    """
    demands = traffic.switch_pairs()
    if not demands:
        return float("inf")

    a_eq, b_eq, a_ub, b_ub, num_vars = _assemble_edge_lp(topology, demands)
    objective = np.zeros(num_vars)
    objective[num_vars - 1] = -1.0  # maximize theta

    result = linprog(
        objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise FlowSolverError(f"LP solver failed: {result.message}")
    return float(result.x[num_vars - 1])
