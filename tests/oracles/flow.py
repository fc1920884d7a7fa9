"""Pre-vectorization flow implementations, kept as parity references.

These are the pure-Python / ``lil_matrix`` implementations that shipped
before the vectorized flow engine took over the hot paths:

* :func:`max_min_fair_allocation_reference` -- progressive filling with
  per-link Python set scans, exactly as :mod:`repro.flow.maxmin` ran it.
* :func:`max_concurrent_flow_edge_lp_reference` /
  :func:`max_concurrent_flow_path_lp_reference` -- the LPs assembled
  cell-by-cell into ``lil_matrix``.  Their assembly steps are split out
  (:func:`assemble_edge_lp_reference`, :func:`assemble_path_lp_reference`)
  so ``benchmarks/record_flow.py`` can time matrix construction separately
  from the HiGHS solve.

The parity suite (``tests/test_flow_parity.py``) pins the vectorized
engine against these bit-for-bit (max-min) and matrix-for-matrix /
theta-to-1e-9 (LPs), and ``benchmarks/record_flow.py`` times old versus
new to produce ``benchmarks/BENCH_flow.json``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import lil_matrix

from repro.flow.maxmin import Allocation, DirectedLink, FlowSpec, _path_links
from repro.flow.mcf import FlowSolverError
from repro.routing.paths import PathSet, build_path_set
from repro.simulation.capacity import link_capacities
from repro.topologies.base import Topology
from repro.traffic.matrices import TrafficMatrix


def max_min_fair_allocation_reference(
    flows: Sequence[FlowSpec],
    link_capacity: Dict[DirectedLink, float],
    default_capacity: float = 1.0,
    epsilon: float = 1e-9,
) -> Allocation:
    """Progressive filling over Python dicts/sets (the pre-vectorized kernel)."""
    # Subflow bookkeeping.
    subflow_paths: Dict[Tuple[Hashable, int], list] = {}
    subflow_cap: Dict[Tuple[Hashable, int], float] = {}
    flow_of: Dict[Tuple[Hashable, int], Hashable] = {}
    flow_demand: Dict[Hashable, float] = {}

    for flow in flows:
        flow_demand[flow.flow_id] = flow.demand
        for index, path in enumerate(flow.paths):
            key = (flow.flow_id, index)
            links = _path_links(path)
            subflow_paths[key] = links
            flow_of[key] = flow.flow_id
            if flow.subflow_caps is not None:
                subflow_cap[key] = flow.subflow_caps[index]
            else:
                subflow_cap[key] = flow.demand

    rates: Dict[Tuple[Hashable, int], float] = {key: 0.0 for key in subflow_paths}
    active = {key for key, links in subflow_paths.items() if links}
    # Subflows whose path is empty (same-switch traffic) get their cap outright.
    for key, links in subflow_paths.items():
        if not links:
            rates[key] = min(subflow_cap[key], flow_demand[flow_of[key]])

    residual: Dict[DirectedLink, float] = {}
    claimants: Dict[DirectedLink, set] = {}
    for key in active:
        for link in subflow_paths[key]:
            residual.setdefault(link, link_capacity.get(link, default_capacity))
            claimants.setdefault(link, set()).add(key)

    flow_rate: Dict[Hashable, float] = {flow.flow_id: 0.0 for flow in flows}
    for key, rate in rates.items():
        flow_rate[flow_of[key]] += rate

    def freeze(key: Tuple[Hashable, int]) -> None:
        active.discard(key)
        for link in subflow_paths[key]:
            claimants[link].discard(key)

    while active:
        # Largest uniform increment permitted by links, subflow caps and
        # aggregate flow demands.
        increment = None

        for link, users in claimants.items():
            live = [u for u in users if u in active]
            if not live:
                continue
            candidate = residual[link] / len(live)
            if increment is None or candidate < increment:
                increment = candidate

        active_per_flow: Dict[Hashable, int] = {}
        for key in active:
            active_per_flow[flow_of[key]] = active_per_flow.get(flow_of[key], 0) + 1

        for key in active:
            candidate = subflow_cap[key] - rates[key]
            if increment is None or candidate < increment:
                increment = candidate
        for flow_id, count in active_per_flow.items():
            remaining = flow_demand[flow_id] - flow_rate[flow_id]
            candidate = remaining / count
            if increment is None or candidate < increment:
                increment = candidate

        if increment is None:
            break
        increment = max(increment, 0.0)

        # Apply the increment.
        for key in list(active):
            rates[key] += increment
            flow_rate[flow_of[key]] += increment
        for link in residual:
            live = sum(1 for u in claimants[link] if u in active)
            residual[link] -= increment * live

        # Freeze saturated claimants.
        newly_frozen = set()
        for link, users in claimants.items():
            if residual[link] <= epsilon:
                newly_frozen.update(u for u in users if u in active)
        for key in list(active):
            if rates[key] >= subflow_cap[key] - epsilon:
                newly_frozen.add(key)
            elif flow_rate[flow_of[key]] >= flow_demand[flow_of[key]] - epsilon:
                newly_frozen.add(key)
        if not newly_frozen and increment <= epsilon:
            # No progress possible; avoid an infinite loop.
            break
        for key in newly_frozen:
            freeze(key)

    link_loads: Dict[DirectedLink, float] = {}
    for key, rate in rates.items():
        for link in subflow_paths[key]:
            link_loads[link] = link_loads.get(link, 0.0) + rate

    return Allocation(flow_rates=flow_rate, subflow_rates=rates, link_loads=link_loads)


def assemble_edge_lp_reference(topology: Topology, demands: Dict) -> tuple:
    """Cell-by-cell ``lil_matrix`` assembly of the edge-based LP.

    Returns ``(a_eq, b_eq, a_ub, b_ub, num_vars)`` with the matrices
    already converted to CSR, exactly as the pre-vectorized solver
    handed them to HiGHS.
    """
    arcs = [
        (u, v, capacity) for (u, v), capacity in link_capacities(topology).items()
    ]
    if not arcs:
        raise FlowSolverError("topology has no links but traffic crosses switches")
    nodes = list(topology.graph.nodes)
    node_index = {node: i for i, node in enumerate(nodes)}

    sources = sorted({src for src, _ in demands}, key=str)
    source_index = {src: i for i, src in enumerate(sources)}
    num_arcs = len(arcs)
    num_sources = len(sources)
    num_nodes = len(nodes)

    # Variables: f[s, a] for every source group and arc, then theta (last).
    num_flow_vars = num_sources * num_arcs
    theta_var = num_flow_vars
    num_vars = num_flow_vars + 1

    def var(source: Hashable, arc: int) -> int:
        return source_index[source] * num_arcs + arc

    # Demand bookkeeping per source.
    demand_to: Dict[Hashable, Dict[Hashable, float]] = {s: {} for s in sources}
    total_from: Dict[Hashable, float] = {s: 0.0 for s in sources}
    for (src, dst), rate in demands.items():
        demand_to[src][dst] = demand_to[src].get(dst, 0.0) + rate
        total_from[src] += rate

    # Equality constraints: conservation for every (source group, node).
    num_eq = num_sources * num_nodes
    a_eq = lil_matrix((num_eq, num_vars))
    b_eq = np.zeros(num_eq)
    for s in sources:
        base = source_index[s] * num_nodes
        for arc_id, (u, v, _) in enumerate(arcs):
            column = var(s, arc_id)
            # Arc u -> v: outflow at u, inflow at v.
            a_eq[base + node_index[u], column] -= 1.0
            a_eq[base + node_index[v], column] += 1.0
        for node in nodes:
            row = base + node_index[node]
            if node == s:
                # outflow - inflow = theta * total  ->  (in - out) + theta*total = 0
                a_eq[row, theta_var] = total_from[s]
            else:
                # inflow - outflow = theta * demand(s, node)
                a_eq[row, theta_var] = -demand_to[s].get(node, 0.0)

    # Inequality constraints: capacity per arc.
    a_ub = lil_matrix((num_arcs, num_vars))
    b_ub = np.zeros(num_arcs)
    for arc_id, (_, _, capacity) in enumerate(arcs):
        for s in sources:
            a_ub[arc_id, var(s, arc_id)] = 1.0
        b_ub[arc_id] = capacity

    return a_eq.tocsr(), b_eq, a_ub.tocsr(), b_ub, num_vars


def max_concurrent_flow_edge_lp_reference(
    topology: Topology, traffic: TrafficMatrix
) -> float:
    """The pre-vectorized edge-based max-concurrent-flow LP."""
    demands = traffic.switch_pairs()
    if not demands:
        return float("inf")

    a_eq, b_eq, a_ub, b_ub, num_vars = assemble_edge_lp_reference(topology, demands)
    objective = np.zeros(num_vars)
    objective[num_vars - 1] = -1.0  # maximize theta

    result = linprog(
        objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * num_vars,
        method="highs",
    )
    if not result.success:
        raise FlowSolverError(f"LP solver failed: {result.message}")
    return float(result.x[num_vars - 1])


def assemble_path_lp_reference(
    topology: Topology, demands: Dict, path_set: PathSet
) -> tuple:
    """Cell-by-cell ``lil_matrix`` assembly of the path-based LP.

    Returns ``(a_eq, b_eq, a_ub, b_ub, num_vars)`` in CSR form, exactly as
    the pre-vectorized solver handed them to HiGHS.
    """
    arcs = [
        (u, v, capacity) for (u, v), capacity in link_capacities(topology).items()
    ]
    arc_index = {(u, v): i for i, (u, v, _) in enumerate(arcs)}

    # Enumerate path variables.
    path_vars = []  # (pair, path)
    for pair in demands:
        options = path_set.get(pair)
        if not options:
            raise FlowSolverError(f"no candidate path for demanded pair {pair!r}")
        for path in options:
            path_vars.append((pair, path))

    num_paths = len(path_vars)
    theta_var = num_paths
    num_vars = num_paths + 1

    pairs = list(demands)
    pair_row = {pair: i for i, pair in enumerate(pairs)}

    a_eq = lil_matrix((len(pairs), num_vars))
    b_eq = np.zeros(len(pairs))
    for column, (pair, _) in enumerate(path_vars):
        a_eq[pair_row[pair], column] = 1.0
    for pair in pairs:
        a_eq[pair_row[pair], theta_var] = -demands[pair]

    a_ub = lil_matrix((len(arcs), num_vars))
    b_ub = np.array([capacity for (_, _, capacity) in arcs])
    for column, (_, path) in enumerate(path_vars):
        for u, v in zip(path, path[1:]):
            a_ub[arc_index[(u, v)], column] += 1.0

    return a_eq.tocsr(), b_eq, a_ub.tocsr(), b_ub, num_vars


def max_concurrent_flow_path_lp_reference(
    topology: Topology,
    traffic: TrafficMatrix,
    path_set: Optional[PathSet] = None,
    k: int = 8,
) -> float:
    """The pre-vectorized path-restricted max-concurrent-flow LP."""
    demands = traffic.switch_pairs()
    if not demands:
        return float("inf")

    if path_set is None:
        path_set = build_path_set(topology.graph, list(demands), scheme="ksp", k=k)

    a_eq, b_eq, a_ub, b_ub, num_vars = assemble_path_lp_reference(
        topology, demands, path_set
    )
    objective = np.zeros(num_vars)
    objective[num_vars - 1] = -1.0

    result = linprog(
        objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * num_vars,
        method="highs",
    )
    if not result.success:
        raise FlowSolverError(f"LP solver failed: {result.message}")
    return float(result.x[num_vars - 1])
