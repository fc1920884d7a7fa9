"""Throughput harness: normalized throughput and servers-at-full-capacity.

Implements the paper's evaluation methodology (Section 4):

* :func:`normalized_throughput` -- solve the path-restricted
  max-concurrent-flow LP for a traffic matrix (a random permutation drawn
  from ``rng`` when none is given) and report the per-flow normalized
  throughput in [0, 1] (the concurrent factor theta, capped at 1).
  :func:`repro.simulation.fluid.simulate_fluid` and
  :func:`repro.simulation.aimd.simulate_aimd` draw the same permutation the
  same way, so a figure's trial loop passes its rng and no matrix.
* :func:`mean_normalized_throughput` -- the mean of that over several
  random permutations, as one batch whose LPs are solved concurrently
  (Figs 3, 4, 6 and 14).
* :func:`degraded_throughput` -- the same on a failed, possibly partitioned
  topology (Fig 8): demands cut off by a partition carry zero throughput.
* :func:`supports_full_throughput` -- check that a topology carries several
  independently sampled permutation matrices at full line rate.
* :func:`largest_feasible` -- the bisection behind Fig 2(c) and Fig 11: the
  largest count in a range that still meets a monotone target.
* :func:`max_servers_at_full_throughput` -- Fig 2(c)'s search: the largest
  server count a topology family supports at full capacity.

The edge LP (:func:`repro.flow.mcf.max_concurrent_flow_edge_lp`) is the
exact oracle the path LP is tested against; the harness does not call it.

Routes are shared across the harness: a content-hashed table of per-pair
paths (:func:`repro.routing.paths.shared_path_set`) per topology, so
checking one topology against several permutation matrices routes each
newly demanded switch pair once.  The LP, the analytic screen and the
simulators price links from one table,
:func:`repro.simulation.capacity.link_capacities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.flow.path_lp import (
    max_concurrent_flow_path_lp,
    path_lp_thetas,
    shared_path_lp_structure,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.properties import csr_component_labels
from repro.routing.paths import shared_path_set
from repro.simulation.capacity import DirectedLink, link_capacities
from repro.telemetry import count, trace
from repro.topologies.base import Topology
from repro.traffic.matrices import (
    SwitchDemandArrays,
    TrafficMatrix,
    random_permutation_traffic,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.stats import mean

#: Theta at or above this is full line rate.  Both the reported
#: :meth:`ThroughputResult.supports_full_capacity` and the decision path
#: (:func:`_supports_matrix`) compare against it; the 1e-9 slack absorbs
#: solver rounding around theta = 1.
FULL_RATE_THETA = 1.0 - 1e-9

#: Bound screens skip the LP only when they prove theta short of full line
#: rate by at least this margin (comfortably wider than the 1e-9 slack in
#: :data:`FULL_RATE_THETA`, so floating-point noise in a bound can never
#: flip a decision).
_SCREEN_MARGIN = 1e-6


@dataclass(frozen=True)
class ThroughputResult:
    """Outcome of a throughput evaluation for one topology and one matrix."""

    theta: float
    normalized: float
    num_flows: int

    def supports_full_capacity(self) -> bool:
        return self.theta >= FULL_RATE_THETA


def normalized_throughput(
    topology: Topology,
    traffic: Optional[TrafficMatrix] = None,
    k: int = 8,
    rng: RngLike = None,
) -> ThroughputResult:
    """Normalized per-flow throughput under optimal routing over k shortest paths.

    If ``traffic`` is omitted, a random permutation matrix is drawn from
    ``rng``, which is left exactly where that draw leaves it.
    """
    if traffic is None:
        traffic = random_permutation_traffic(topology, rng=rng)
    if len(traffic) == 0:
        return ThroughputResult(theta=float("inf"), normalized=1.0, num_flows=0)
    theta = max_concurrent_flow_path_lp(topology, traffic, k=k)
    return ThroughputResult(
        theta=theta, normalized=min(theta, 1.0), num_flows=len(traffic)
    )


def mean_normalized_throughput(
    topology: Topology, trials: int, rng: RngLike = None
) -> float:
    """Mean normalized throughput over ``trials`` random permutation matrices.

    Equals the mean of ``trials`` calls of ``normalized_throughput(topology,
    rng=rng).normalized``, over the same k=8 shortest paths, bit for bit,
    and leaves ``rng`` where they would: every trial's permutation is drawn
    first, in order, and solving draws nothing.  The trials' LPs are then
    routed and solved as one batch
    (:func:`~repro.flow.path_lp.path_lp_thetas`), concurrently where the
    process may use more than one CPU.
    """
    rand = ensure_rng(rng)
    matrices = [random_permutation_traffic(topology, rng=rand) for _ in range(trials)]
    return mean(min(theta, 1.0) for theta in path_lp_thetas(topology, matrices))


def degraded_throughput(
    topology: Topology,
    traffic: Optional[TrafficMatrix] = None,
    k: int = 8,
    rng: RngLike = None,
) -> ThroughputResult:
    """Normalized throughput on a topology that failures may have partitioned.

    The counterpart of :func:`normalized_throughput` for failed topologies
    (Fig 8).  :func:`~repro.graphs.properties.csr_component_labels` decides
    reachability:

    * on one component, the result is :func:`normalized_throughput` of the
      whole matrix;
    * on several, a demand whose endpoints sit in different components
      carries zero throughput.  The reachable demands, in traffic order,
      are solved as usual, and ``normalized`` is their LP value times
      reachable / total (0.0 when no demand is reachable), so nothing
      raises.  ``theta`` is 0.0 whenever a demand is cut off, since no
      positive multiple of the whole matrix can be carried, so such a
      matrix never supports full capacity;
    * an *empty* traffic matrix is fully served (1.0).  Scoring a plant
      that lost every pair it promised is the caller's business
      (:func:`repro.lifecycle.metrics.evaluate_epoch` does it).
    """
    if traffic is None:
        traffic = random_permutation_traffic(topology, rng=rng)
    if len(traffic) == 0:
        return ThroughputResult(theta=float("inf"), normalized=1.0, num_flows=0)
    csr = topology.csr()
    labels = csr_component_labels(csr)
    if not labels.any():  # one component: every label is 0
        return normalized_throughput(topology, traffic, k=k)
    label_of = dict(zip(csr.nodes, labels.tolist()))
    reachable = [
        demand
        for demand in traffic
        if label_of[demand.source_switch] == label_of[demand.destination_switch]
    ]
    total_flows = len(traffic)
    if not reachable:
        return ThroughputResult(theta=0.0, normalized=0.0, num_flows=total_flows)
    result = normalized_throughput(topology, TrafficMatrix(reachable), k=k)
    scaled = (result.normalized * len(reachable)) / total_flows
    theta = result.theta if len(reachable) == total_flows else 0.0
    return ThroughputResult(theta=theta, normalized=scaled, num_flows=total_flows)


def _throughput_upper_bound(
    csr: CSRGraph, arrays: SwitchDemandArrays, capacities: Dict[DirectedLink, float]
) -> float:
    """Analytic upper bound on the concurrent-flow factor theta.

    Two sound bounds, both valid for the edge LP and (a fortiori) the
    path-restricted LP:

    * **switch cut** -- all traffic entering or leaving a switch crosses its
      incident links, so ``theta <= incident_capacity / demand`` per switch
      and direction;
    * **volume** -- a unit of (s, t) flow consumes at least ``hop_dist(s, t)``
      units of directed arc capacity, so ``theta <= total_arc_capacity /
      sum(demand * hop_dist)``.

    ``arrays`` is the matrix aggregated over ``csr``'s switch index and
    ``capacities`` the topology's
    :func:`~repro.simulation.capacity.link_capacities` table, the one the
    LPs solve over; capacities are integer-valued, so their sums are exact.
    Returns ``inf`` when no bound applies (e.g. a demanded pair is
    unreachable, which the LP path handles by raising).
    """
    if not arrays.pairs:
        return float("inf")

    # Per-switch in/out demand via bincount: bins accumulate in demand
    # order, the same float-add sequence as the dict walk it replaces.
    num_nodes = csr.num_nodes
    out_demand = np.bincount(arrays.src, weights=arrays.rates, minlength=num_nodes)
    in_demand = np.bincount(arrays.dst, weights=arrays.rates, minlength=num_nodes)
    active = np.flatnonzero((out_demand > 0.0) | (in_demand > 0.0))

    bound = float("inf")
    index_of = csr.index_of
    # A switch's incident capacity, summed over its outgoing arcs (one per
    # link, each as large as the arc coming back).
    incident_cap = np.bincount(
        np.asarray([index_of[u] for u, _ in capacities], dtype=np.int64),
        weights=np.fromiter(capacities.values(), dtype=np.float64),
        minlength=num_nodes,
    )[active]
    for per_switch in (out_demand, in_demand):
        demanded = per_switch[active]
        positive = demanded > 0.0
        if positive.any():
            candidate = float(np.min(incident_cap[positive] / demanded[positive]))
            if candidate < bound:
                bound = candidate

    unique_sources, inverse = np.unique(arrays.src, return_inverse=True)
    distances = csr.hop_distance_matrix(unique_sources.tolist())
    hops = distances[inverse, arrays.dst]
    if (hops < 0).any():
        # Unreachable pair: no volume bound applies.  Degradation-aware
        # callers (degraded_throughput, the lifecycle engine) filter such
        # demands before solving; the raw LP path still raises, by design.
        return float("inf")
    # Sequential sum in demand order keeps the bound bit-identical to the
    # historical scalar accumulation (numpy's pairwise sum would not).
    total_cost = sum((arrays.rates * hops).tolist())
    if total_cost > 0.0:
        candidate = sum(capacities.values()) / total_cost
        if candidate < bound:
            bound = candidate
    return bound


def _supports_matrix(topology: Topology, traffic: TrafficMatrix, k: int) -> bool:
    """Full-line-rate decision for one traffic matrix.

    The analytic bound screens first: a probe they prove infeasible never
    assembles paths or an LP at all.  Otherwise it solves the same LP, with
    the same size-chosen HiGHS method, that ``normalized_throughput`` would
    (:meth:`~repro.flow.path_lp.PathLPStructure.solve_decision`), and
    compares theta against the same :data:`FULL_RATE_THETA`, so decisions
    are identical to evaluating ``normalized_throughput`` by construction.
    The screen and the solve share one aggregation of the matrix and one
    capacity table.
    """
    if len(traffic) == 0:
        return True
    with trace("throughput.screen", flows=len(traffic)):
        csr = topology.csr()
        arrays = traffic.as_switch_array(csr.index_of)
        capacities = link_capacities(topology)
        screened = _throughput_upper_bound(csr, arrays, capacities) < 1.0 - _SCREEN_MARGIN
    if screened:
        count("throughput.screen_rejects")
        return False
    if not arrays.pairs:
        return True
    with trace("throughput.decide", pairs=len(arrays.pairs)):
        structure = shared_path_lp_structure(capacities)
        path_set = shared_path_set(csr, arrays.pairs, scheme="ksp", k=k)
        theta = structure.solve_decision(arrays, path_set)
    return theta >= FULL_RATE_THETA


def supports_full_throughput(
    topology: Topology,
    num_matrices: int = 3,
    k: int = 8,
    rng: RngLike = None,
) -> bool:
    """True if the topology carries ``num_matrices`` random permutations at line rate.

    A disconnected topology (which can arise when very few ports per switch
    remain for the network) can never carry permutation traffic between all
    of its servers, so it is reported as infeasible outright.
    """
    rand = ensure_rng(rng)
    if not topology.is_connected():
        return False
    for _ in range(num_matrices):
        traffic = random_permutation_traffic(topology, rng=rand)
        if not _supports_matrix(topology, traffic, k):
            return False
    return True


def largest_feasible(feasible: Callable[[int], bool], low: int, high: int) -> int:
    """Largest count in ``[low, high]`` for which ``feasible`` holds, by bisection.

    Assumes ``feasible(low)`` holds -- each caller decides what an
    infeasible ``low`` means -- and that feasibility is monotone (more is
    harder).  Probes ``high`` first, then midpoints; a ``feasible`` that
    draws from an rng therefore consumes it in that order.
    """
    if feasible(high):
        return high
    # Invariant: low feasible, high infeasible.
    while high - low > 1:
        middle = (low + high) // 2
        if feasible(middle):
            low = middle
        else:
            high = middle
    return low


def max_servers_at_full_throughput(
    topology_factory: Callable[[int], Topology],
    lower: int,
    upper: int,
    num_matrices: int = 3,
    k: int = 8,
    rng: RngLike = None,
) -> int:
    """Binary-search the largest server count supported at full capacity.

    ``topology_factory(num_servers)`` must build a topology hosting that many
    servers from the fixed equipment pool under study.  The search assumes
    monotonicity (more servers -> harder to support), mirroring the paper's
    procedure, and raises if even ``lower`` is infeasible.
    """
    if lower > upper:
        raise ValueError("lower bound exceeds upper bound")
    rand = ensure_rng(rng)

    def feasible(num_servers: int) -> bool:
        return supports_full_throughput(
            topology_factory(num_servers), num_matrices=num_matrices, k=k, rng=rand
        )

    if not feasible(lower):
        raise ValueError(f"even the lower bound of {lower} servers is infeasible")
    return largest_feasible(feasible, lower, upper)
