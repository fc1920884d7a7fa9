"""Max-min fair bandwidth allocation (progressive filling / water-filling).

This is the congestion-control substrate for the fluid simulator: a set of
subflows, each pinned to a single path, share link capacities fairly.  The
allocation is computed by progressive filling -- all unfrozen subflow rates
rise together until a link saturates (its subflows freeze) or a flow reaches
its aggregate demand cap (all of its subflows freeze).

The filling rounds run as a vectorized kernel: subflow->link membership is
encoded once as a sparse CSR incidence matrix, and each round's live-claimant
counts, uniform increment, residual updates and saturation masks are numpy /
scipy matvecs instead of per-link Python set scans.  Freezing semantics are
bit-for-bit identical to the pre-vectorized implementation: the hypothesis
parity suite in ``tests/test_flow_parity.py`` pins them against it
(``tests/oracles/flow.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.telemetry import trace

Path = Tuple[Hashable, ...]
DirectedLink = Tuple[Hashable, Hashable]


@dataclass
class FlowSpec:
    """A flow with zero or more subflow paths and an aggregate demand cap.

    ``subflow_caps`` optionally caps each subflow individually (used to model
    applications that stripe data evenly over parallel TCP connections, as
    opposed to MPTCP which rebalances freely within the aggregate cap).

    An *empty* ``paths`` list is an **unrouted** flow -- the degradation
    semantics for a demand whose endpoints are unreachable on a partitioned
    topology (see :mod:`repro.failures.degradation`).  Unrouted flows place
    no subflows, claim no capacity, and are allocated exactly 0.0 by both
    max-min implementations, so they show up as zero throughput rather than
    an exception.
    """

    flow_id: Hashable
    paths: List[Path]
    demand: float = 1.0
    subflow_caps: Optional[List[float]] = None

    def __post_init__(self) -> None:
        if self.demand <= 0:
            raise ValueError(f"flow {self.flow_id!r} has non-positive demand")
        if self.subflow_caps is not None and len(self.subflow_caps) != len(self.paths):
            raise ValueError(
                f"flow {self.flow_id!r}: subflow_caps length must match paths"
            )


@dataclass
class Allocation:
    """Result of a max-min fair allocation."""

    flow_rates: Dict[Hashable, float] = field(default_factory=dict)
    subflow_rates: Dict[Tuple[Hashable, int], float] = field(default_factory=dict)
    link_loads: Dict[DirectedLink, float] = field(default_factory=dict)

    def total_throughput(self) -> float:
        return sum(self.flow_rates.values())


def _path_links(path: Path) -> List[DirectedLink]:
    return list(zip(path, path[1:]))


def max_min_fair_allocation(
    flows: Sequence[FlowSpec],
    link_capacity: Dict[DirectedLink, float],
    default_capacity: float = 1.0,
    epsilon: float = 1e-9,
) -> Allocation:
    """Compute max-min fair rates by progressive filling.

    ``link_capacity`` maps directed links (u, v) to capacity; links absent
    from the map get ``default_capacity``.  Every subflow of every flow is a
    claimant on the links of its path.  Rates rise uniformly; subflows freeze
    when a link on their path saturates, when their own cap is reached, or
    when the aggregate flow demand is met.
    """
    # Subflow bookkeeping (dict pass kept identical to the reference, so
    # duplicate flow ids and repeated (flow, index) keys resolve the same).
    subflow_paths: Dict[Tuple[Hashable, int], List[DirectedLink]] = {}
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

    keys = list(subflow_paths)
    num_subflows = len(keys)
    flow_ids = list(flow_demand)
    flow_pos = {flow_id: i for i, flow_id in enumerate(flow_ids)}
    num_flows = len(flow_ids)

    # Scalar-initialized rates: zero-hop subflows (same-switch traffic) get
    # their cap outright; the accumulation into per-flow totals runs in key
    # order with Python float adds, matching the reference bit-for-bit.
    initial_rates = []
    initial_flow_rate = [0.0] * num_flows
    for key in keys:
        if subflow_paths[key]:
            rate = 0.0
        else:
            rate = min(subflow_cap[key], flow_demand[flow_of[key]])
        initial_rates.append(rate)
    for j, key in enumerate(keys):
        initial_flow_rate[flow_pos[flow_of[key]]] += initial_rates[j]

    # Encode subflow->link membership as COO triplets; the claimant matrix is
    # binary (a subflow claims each link of its path once, however many times
    # the path traverses it -- same as the reference's per-link sets).
    link_pos: Dict[DirectedLink, int] = {}
    residual_list: List[float] = []
    coo_rows: List[int] = []
    coo_cols: List[int] = []
    for j, key in enumerate(keys):
        links = subflow_paths[key]
        if not links:
            continue
        seen_here = set()
        for link in links:
            lid = link_pos.get(link)
            if lid is None:
                lid = link_pos[link] = len(residual_list)
                residual_list.append(link_capacity.get(link, default_capacity))
            if lid not in seen_here:
                seen_here.add(lid)
                coo_rows.append(lid)
                coo_cols.append(j)
    num_links = len(residual_list)

    rates = np.asarray(initial_rates, dtype=np.float64)
    flow_rate = np.asarray(initial_flow_rate, dtype=np.float64)
    caps = np.asarray([subflow_cap[key] for key in keys], dtype=np.float64)
    demands = np.asarray([flow_demand[f] for f in flow_ids], dtype=np.float64)
    subflow_flow = np.asarray(
        [flow_pos[flow_of[key]] for key in keys], dtype=np.intp
    )
    residual = np.asarray(residual_list, dtype=np.float64)
    active = np.asarray([bool(subflow_paths[key]) for key in keys], dtype=bool)

    if num_links:
        membership = csr_matrix(
            (
                np.ones(len(coo_rows), dtype=np.float64),
                (np.asarray(coo_rows), np.asarray(coo_cols)),
            ),
            shape=(num_links, num_subflows),
        )
        membership_t = membership.T.tocsr()
    else:
        membership = membership_t = None

    saturation_rounds = 0
    with trace("maxmin.fill", subflows=num_subflows, links=num_links) as span:
        while active.any():
            saturation_rounds += 1
            active_f = active.astype(np.float64)
            # Largest uniform increment permitted by links, subflow caps and
            # aggregate flow demands (min over the same candidate set as the
            # reference; min is order-independent).
            increment = None
            if membership is not None:
                live = membership @ active_f
                contested = live > 0.0
                if contested.any():
                    increment = float(np.min(residual[contested] / live[contested]))

            counts = np.bincount(subflow_flow[active], minlength=num_flows)
            headroom = caps[active] - rates[active]
            if headroom.size:
                candidate = float(headroom.min())
                if increment is None or candidate < increment:
                    increment = candidate
            claiming = counts > 0
            if claiming.any():
                candidate = float(
                    np.min((demands[claiming] - flow_rate[claiming]) / counts[claiming])
                )
                if increment is None or candidate < increment:
                    increment = candidate

            if increment is None:
                break
            increment = max(increment, 0.0)

            # Apply the increment.  Per-flow totals grow by one addition per
            # active subflow (not count * increment), replicating the reference's
            # sequential accumulation exactly.
            rates[active] += increment
            for step in range(int(counts.max()) if counts.size else 0):
                flow_rate[counts > step] += increment
            if membership is not None:
                residual -= increment * live

            # Freeze saturated claimants.
            newly_frozen = np.zeros(num_subflows, dtype=bool)
            if membership is not None:
                saturated = residual <= epsilon
                if saturated.any():
                    touched = (membership_t @ saturated.astype(np.float64)) > 0.0
                    newly_frozen |= active & touched
            newly_frozen |= active & (rates >= caps - epsilon)
            newly_frozen |= active & (flow_rate >= demands - epsilon)[subflow_flow]
            if not newly_frozen.any() and increment <= epsilon:
                # No progress possible; avoid an infinite loop.
                break
            active &= ~newly_frozen
        span.add(saturation_rounds=saturation_rounds)

    # Final accounting mirrors the reference's scalar passes (Python float
    # adds in key order, one add per link traversal) so load bookkeeping is
    # bit-identical even for paths that revisit a link.
    rate_of = {key: float(rates[j]) for j, key in enumerate(keys)}
    link_loads: Dict[DirectedLink, float] = {}
    for key, rate in rate_of.items():
        for link in subflow_paths[key]:
            link_loads[link] = link_loads.get(link, 0.0) + rate
    flow_rate_of = {
        flow_id: float(flow_rate[i]) for i, flow_id in enumerate(flow_ids)
    }

    return Allocation(
        flow_rates=flow_rate_of, subflow_rates=rate_of, link_loads=link_loads
    )
