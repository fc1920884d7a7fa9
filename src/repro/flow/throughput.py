"""Throughput harness: normalized throughput and servers-at-full-capacity.

Implements the paper's evaluation methodology (Section 4):

* :func:`normalized_throughput` -- solve the max-concurrent-flow problem for
  a random-permutation traffic matrix and report the per-flow normalized
  throughput in [0, 1] (the concurrent factor theta, capped at 1).
* :func:`supports_full_throughput` -- check that a topology carries several
  independently sampled permutation matrices at full line rate.
* :func:`max_servers_at_full_throughput` -- the binary-search procedure used
  for Fig 2(c) and Fig 11: find the largest server count a topology family
  supports at full capacity, then verify with extra matrices.

Throughput state is shared across the harness: the path engine keeps a
content-hashed table of per-pair routes
(:func:`repro.routing.paths.shared_path_set`) and the demand-independent LP
blocks (:func:`repro.flow.path_lp.shared_path_lp_structure`) per topology,
so checking one topology against several permutation matrices — and every
probe of the binary search — only rebuilds the demand rows of the LP and
routes each newly demanded switch pair once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # runtime import is lazy to avoid a failures<->flow cycle
    from repro.failures.degradation import DegradationReport

import numpy as np

from repro.flow.mcf import max_concurrent_flow_edge_lp
from repro.flow.path_lp import (
    max_concurrent_flow_path_lp,
    shared_path_lp_structure,
)
from repro.graphs.csr import csr_graph
from repro.routing.paths import shared_path_set
from repro.telemetry import count, trace
from repro.topologies.base import Topology
from repro.traffic.matrices import TrafficMatrix, random_permutation_traffic
from repro.utils.rng import RngLike, ensure_rng

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


@dataclass(frozen=True)
class DegradedThroughputResult:
    """A throughput evaluation carrying its structural damage report.

    ``normalized`` is the degradation-scaled per-flow throughput in [0, 1]:
    unreachable demands contribute exactly zero, reachable demands are
    evaluated by the LP within their components, and the two are combined
    as ``lp_normalized * reachable / total`` -- the single semantics every
    kernel follows on partitioned topologies (see
    :mod:`repro.failures.degradation`).  ``report`` is the structured
    :class:`~repro.failures.degradation.DegradationReport`.
    """

    normalized: float
    theta: float
    num_flows: int
    report: "DegradationReport"


def concurrent_flow(
    topology: Topology,
    traffic: TrafficMatrix,
    engine: str = "path",
    k: int = 8,
) -> float:
    """Concurrent-flow factor theta using the selected LP engine."""
    if engine == "edge":
        return max_concurrent_flow_edge_lp(topology, traffic)
    if engine == "path":
        return max_concurrent_flow_path_lp(topology, traffic, k=k)
    raise ValueError(f"unknown engine {engine!r}; expected 'edge' or 'path'")


def normalized_throughput(
    topology: Topology,
    traffic: Optional[TrafficMatrix] = None,
    engine: str = "path",
    k: int = 8,
    rng: RngLike = None,
) -> ThroughputResult:
    """Normalized per-flow throughput under optimal (LP) routing.

    If ``traffic`` is omitted, a random permutation matrix is sampled.
    """
    if traffic is None:
        traffic = random_permutation_traffic(topology, rng=rng)
    if len(traffic) == 0:
        return ThroughputResult(theta=float("inf"), normalized=1.0, num_flows=0)
    theta = concurrent_flow(topology, traffic, engine=engine, k=k)
    return ThroughputResult(
        theta=theta, normalized=min(theta, 1.0), num_flows=len(traffic)
    )


def degraded_throughput(
    topology: Topology,
    traffic: Optional[TrafficMatrix] = None,
    engine: str = "path",
    k: int = 8,
    rng: RngLike = None,
    baseline_servers: Optional[int] = None,
) -> DegradedThroughputResult:
    """Normalized throughput with explicit degradation semantics.

    The degradation-safe counterpart of :func:`normalized_throughput` for
    topologies that may be partitioned or stripped of servers by failures:

    * demands whose endpoints sit in different connected components count
      as zero throughput (they are filtered out before the LP ever sees
      them, so nothing raises);
    * reachable demands are evaluated normally and scaled by the reachable
      fraction, matching the historical fig08 disconnection handling
      bit-for-bit on the same inputs;
    * an *empty* traffic matrix is only "fully served" when nothing was
      lost -- if ``baseline_servers`` (the healthy plant's server count)
      shows that demand used to exist but can no longer be expressed
      (every server-hosting switch failed), the result is 0.0, not the
      vacuous 1.0 the raw LP harness reports.

    Returns a :class:`DegradedThroughputResult` whose ``report`` field
    carries the component structure behind the number.
    """
    from repro.failures.degradation import (  # lazy: failures imports flow
        degradation_report,
        split_reachable_demands,
    )

    if traffic is None:
        traffic = random_permutation_traffic(topology, rng=rng)
    report = degradation_report(
        topology, traffic=traffic, baseline_servers=baseline_servers
    )
    if len(traffic) == 0:
        lost_all_demand = (
            baseline_servers is not None
            and baseline_servers >= 2
            and topology.num_servers < 2
        )
        value = 0.0 if lost_all_demand else 1.0
        return DegradedThroughputResult(
            normalized=value,
            theta=0.0 if lost_all_demand else float("inf"),
            num_flows=0,
            report=report,
        )
    if report.num_components <= 1:
        result = normalized_throughput(topology, traffic, engine=engine, k=k)
        return DegradedThroughputResult(
            normalized=result.normalized,
            theta=result.theta,
            num_flows=result.num_flows,
            report=report,
        )
    reachable, _ = split_reachable_demands(topology, traffic)
    total_flows = len(traffic)
    if not reachable:
        return DegradedThroughputResult(
            normalized=0.0, theta=0.0, num_flows=total_flows, report=report
        )
    result = normalized_throughput(
        topology, TrafficMatrix(reachable), engine=engine, k=k
    )
    scaled = (result.normalized * len(reachable)) / total_flows
    return DegradedThroughputResult(
        normalized=scaled, theta=result.theta, num_flows=total_flows, report=report
    )


def _throughput_upper_bound(topology: Topology, traffic: TrafficMatrix) -> float:
    """Analytic upper bound on the concurrent-flow factor theta.

    Two sound bounds, both valid for the edge LP and (a fortiori) the
    path-restricted LP:

    * **switch cut** -- all traffic entering or leaving a switch crosses its
      incident links, so ``theta <= incident_capacity / demand`` per switch
      and direction;
    * **volume** -- a unit of (s, t) flow consumes at least ``hop_dist(s, t)``
      units of directed arc capacity, so ``theta <= total_arc_capacity /
      sum(demand * hop_dist)``.

    Returns ``inf`` when no bound applies (e.g. a demanded pair is
    unreachable, which the LP path handles by raising).
    """
    if not traffic.switch_pairs():
        return float("inf")
    graph = topology.graph
    csr = csr_graph(graph)
    arrays = traffic.as_switch_array(csr.index_of)

    # Per-switch in/out demand via bincount: bins accumulate in demand
    # order, the same float-add sequence as the dict walk it replaces.
    num_nodes = csr.num_nodes
    out_demand = np.bincount(arrays.src, weights=arrays.rates, minlength=num_nodes)
    in_demand = np.bincount(arrays.dst, weights=arrays.rates, minlength=num_nodes)
    active = np.flatnonzero((out_demand > 0.0) | (in_demand > 0.0))

    bound = float("inf")
    incident_cap = np.empty(len(active), dtype=np.float64)
    for position, index in enumerate(active.tolist()):
        capacity = 0.0
        for _, _, data in graph.edges(csr.nodes[index], data=True):
            capacity += float(data.get("capacity", 1.0))
        incident_cap[position] = capacity
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
        total_capacity = 2.0 * sum(
            float(data.get("capacity", 1.0))
            for _, _, data in graph.edges(data=True)
        )
        candidate = total_capacity / total_cost
        if candidate < bound:
            bound = candidate
    return bound


def _supports_matrix(
    topology: Topology, traffic: TrafficMatrix, engine: str, k: int
) -> bool:
    """Full-line-rate decision for one traffic matrix.

    The analytic bound screens first: a probe they prove infeasible never
    assembles paths or an LP at all.  Otherwise the path engine solves the
    same LP, with the same size-chosen HiGHS method, that
    ``normalized_throughput`` would
    (:meth:`~repro.flow.path_lp.PathLPStructure.solve_decision`), and
    compares theta against the same :data:`FULL_RATE_THETA`, so decisions
    are identical to evaluating ``normalized_throughput`` by construction.
    """
    if len(traffic) == 0:
        return True
    with trace("throughput.screen", flows=len(traffic)):
        screened = _throughput_upper_bound(topology, traffic) < 1.0 - _SCREEN_MARGIN
    if screened:
        count("throughput.screen_rejects")
        return False
    if engine != "path":
        return normalized_throughput(
            topology, traffic, engine=engine, k=k
        ).supports_full_capacity()
    demands = traffic.switch_pairs()
    if not demands:
        return True
    with trace("throughput.decide", pairs=len(demands)):
        arrays = traffic.as_switch_array(csr_graph(topology.graph).index_of)
        structure = shared_path_lp_structure(topology, scheme="ksp", k=k)
        path_set = shared_path_set(topology.graph, arrays.pairs, scheme="ksp", k=k)
        theta = structure.solve_decision(demands, path_set, rates=arrays.rates)
    return theta >= FULL_RATE_THETA


def supports_full_throughput(
    topology: Topology,
    num_matrices: int = 3,
    engine: str = "path",
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
        if not _supports_matrix(topology, traffic, engine, k):
            return False
    return True


def max_servers_at_full_throughput(
    topology_factory: Callable[[int], Topology],
    lower: int,
    upper: int,
    num_matrices: int = 3,
    verification_matrices: int = 0,
    engine: str = "path",
    k: int = 8,
    rng: RngLike = None,
) -> int:
    """Binary-search the largest server count supported at full capacity.

    ``topology_factory(num_servers)`` must build a topology hosting that many
    servers from the fixed equipment pool under study.  The search assumes
    monotonicity (more servers -> harder to support), mirroring the paper's
    procedure, and optionally verifies the result against additional
    matrices.
    """
    if lower > upper:
        raise ValueError("lower bound exceeds upper bound")
    rand = ensure_rng(rng)

    def feasible(num_servers: int) -> bool:
        topology = topology_factory(num_servers)
        return supports_full_throughput(
            topology, num_matrices=num_matrices, engine=engine, k=k, rng=rand
        )

    if not feasible(lower):
        raise ValueError(f"even the lower bound of {lower} servers is infeasible")

    low, high = lower, upper
    if feasible(upper):
        best = upper
    else:
        # Invariant: low feasible, high infeasible.
        while high - low > 1:
            middle = (low + high) // 2
            if feasible(middle):
                low = middle
            else:
                high = middle
        best = low

    if verification_matrices > 0:
        topology = topology_factory(best)
        if not supports_full_throughput(
            topology,
            num_matrices=verification_matrices,
            engine=engine,
            k=k,
            rng=rand,
        ):
            # Fall back conservatively if the verification fails.
            best = max(lower, best - 1)
    return best
