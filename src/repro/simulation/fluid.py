"""Fluid (flow-level) simulator for routing + congestion-control studies.

The paper evaluates Jellyfish and the fat-tree under combinations of routing
(ECMP, k-shortest paths) and congestion control (TCP with 1 or 8 flows per
server pair, MPTCP with 8 subflows) using the MPTCP authors' packet
simulator.  That simulator is not available offline, so this module models
the steady state those protocols converge to as a max-min fair allocation
problem (see DESIGN.md, substitution 2):

* **TCP, 1 flow** -- each server pair places one flow on a single path
  chosen from its routing path set by a random hash.
* **TCP, 8 flows** -- eight parallel connections striped round-robin over
  the available paths; the application stripes data evenly, so each
  connection is capped at 1/8 of the pair's demand.
* **MPTCP, 8 subflows** -- eight subflows over the available paths with the
  coupled congestion controller free to rebalance: only the aggregate demand
  cap applies.

Routing supplies the candidate paths: ``"ecmp"`` uses up to ``k`` equal-cost
shortest paths, ``"ksp"`` uses Yen's k shortest paths.  :func:`plan_subflows`
picks each flow's or subflow's paths; the AIMD engine and its scalar
reference follow the same plan, so all three route a connection alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.flow.maxmin import FlowSpec, max_min_fair_allocation
from repro.routing.ksp import Path
from repro.simulation.capacity import link_capacities
from repro.routing.paths import PathSet, shared_path_set
from repro.topologies.base import Topology
from repro.traffic.matrices import Demand, TrafficMatrix, random_permutation_traffic
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.stats import jains_fairness_index, mean

TCP_ONE_FLOW = "tcp1"
TCP_EIGHT_FLOWS = "tcp8"
MPTCP = "mptcp"

_CONGESTION_CONTROLS = (TCP_ONE_FLOW, TCP_EIGHT_FLOWS, MPTCP)


@dataclass(frozen=True)
class SimulationConfig:
    """Routing and congestion-control selection for the fluid simulator."""

    routing: str = "ksp"
    k: int = 8
    congestion_control: str = MPTCP
    subflows: int = 8

    def __post_init__(self) -> None:
        if self.routing not in ("ksp", "ecmp"):
            raise ValueError(f"unknown routing scheme {self.routing!r}")
        if self.congestion_control not in _CONGESTION_CONTROLS:
            raise ValueError(
                f"unknown congestion control {self.congestion_control!r}"
            )
        if self.k <= 0 or self.subflows <= 0:
            raise ValueError("k and subflows must be positive")


@dataclass
class FluidResult:
    """Per-flow normalized throughputs and their summaries."""

    flow_throughputs: List[float] = field(default_factory=list)
    link_loads: Dict[Tuple[Hashable, Hashable], float] = field(default_factory=dict)

    @property
    def average_throughput(self) -> float:
        if not self.flow_throughputs:
            return 1.0
        return mean(self.flow_throughputs)

    @property
    def fairness(self) -> float:
        if not self.flow_throughputs:
            return 1.0
        return jains_fairness_index(self.flow_throughputs)

    def sorted_throughputs(self) -> List[float]:
        return sorted(self.flow_throughputs)


def route_demands(topology: Topology, traffic: TrafficMatrix, config) -> PathSet:
    """Candidate paths (``config.routing``, ``config.k``) of ``traffic``'s pairs.

    The table is the shared content-hashed one, so repeated runs over one
    topology route each switch pair once; unreachable pairs are left out.
    """
    return shared_path_set(
        topology.csr(),
        list(traffic.switch_pairs()),
        scheme=config.routing,
        k=config.k,
        on_unreachable="skip",
    )


def plan_subflows(
    traffic: TrafficMatrix, path_set: PathSet, config, rand
) -> Iterator[Tuple[int, Demand, Optional[List[Path]], List[int]]]:
    """Yield ``(index, demand, options, picks)`` for each demand in order.

    ``options`` is the pair's candidate paths: ``None`` for a same-rack
    demand, empty for a pair ``path_set`` left out (unreachable).  ``picks``
    index into ``options``: a routed tcp1 demand makes the only draw, one
    ``rand.randrange``; tcp8 and MPTCP stripe ``config.subflows`` subflows
    round-robin.
    """
    tcp1 = config.congestion_control == TCP_ONE_FLOW
    for index, demand in enumerate(traffic):
        src, dst = demand.source_switch, demand.destination_switch
        if src == dst:
            yield index, demand, None, []
            continue
        options = path_set.get((src, dst)) or []
        if not options:
            picks = []
        elif tcp1:
            picks = [rand.randrange(len(options))]
        else:
            picks = [i % len(options) for i in range(config.subflows)]
        yield index, demand, options, picks


def _build_flow_specs(
    traffic: TrafficMatrix,
    path_set: PathSet,
    config: SimulationConfig,
    rand,
) -> List[FlowSpec]:
    tcp8 = config.congestion_control == TCP_EIGHT_FLOWS
    specs: List[FlowSpec] = []
    for index, demand, options, picks in plan_subflows(
        traffic, path_set, config, rand
    ):
        # Same-rack traffic is one zero-hop path, always satisfied; an
        # unreachable pair is an unrouted flow, allocated exactly 0.0.
        if options is None:
            paths = [(demand.source_switch,)]
        else:
            paths = [options[pick] for pick in picks]
        caps = None
        if tcp8 and picks:  # the application stripes data evenly
            caps = [demand.rate / config.subflows] * len(picks)
        specs.append(
            FlowSpec(
                flow_id=(index, demand.source, demand.destination),
                paths=paths,
                demand=demand.rate,
                subflow_caps=caps,
            )
        )
    return specs


def _allocate_mptcp_sequential(
    specs: List[FlowSpec],
    capacities: Dict[Tuple[Hashable, Hashable], float],
    default_capacity: float = 1.0,
) -> Tuple[Dict[Hashable, float], Dict[Tuple[Hashable, Hashable], float]]:
    """Allocate MPTCP flows by filling paths in rank order.

    MPTCP's coupled congestion controller keeps traffic on the least
    congested, lowest-RTT subflows and only spills onto additional paths when
    the better ones are saturated ("do no harm" / "balance congestion").  We
    model that equilibrium by repeated max-min rounds over path-length tiers:
    in round ``i`` every connection that has not yet reached its demand
    offers its remaining demand jointly on all of its ``i``-th shortest-tier
    paths, sharing whatever capacity previous rounds left behind.  For ECMP
    path sets (all paths equal length) this collapses to a single joint
    max-min round.

    Returns the per-flow rates and the accumulated per-link loads across
    every round.  ``default_capacity`` is the capacity assumed for links
    absent from ``capacities``, plumbed through to each round's
    :func:`max_min_fair_allocation` call.
    """
    remaining_capacity = dict(capacities)
    flow_rate: Dict[Hashable, float] = {spec.flow_id: 0.0 for spec in specs}
    link_loads: Dict[Tuple[Hashable, Hashable], float] = {}

    # Group each flow's paths into tiers by hop count (shortest tier first).
    tiers_by_flow: Dict[Hashable, List[List[Path]]] = {}
    max_tiers = 0
    for spec in specs:
        by_length: Dict[int, List[Path]] = {}
        for path in spec.paths:
            by_length.setdefault(len(path), []).append(path)
        tiers = [by_length[length] for length in sorted(by_length)]
        tiers_by_flow[spec.flow_id] = tiers
        max_tiers = max(max_tiers, len(tiers))

    for tier_index in range(max_tiers):
        round_specs = []
        for spec in specs:
            tiers = tiers_by_flow[spec.flow_id]
            if tier_index >= len(tiers):
                continue
            remaining = spec.demand - flow_rate[spec.flow_id]
            if remaining <= 1e-9:
                continue
            round_specs.append(
                FlowSpec(
                    flow_id=spec.flow_id,
                    paths=tiers[tier_index],
                    demand=remaining,
                )
            )
        if not round_specs:
            break
        allocation = max_min_fair_allocation(
            round_specs, remaining_capacity, default_capacity=default_capacity
        )
        for flow_id, rate in allocation.flow_rates.items():
            flow_rate[flow_id] += rate
        for link, load in allocation.link_loads.items():
            link_loads[link] = link_loads.get(link, 0.0) + load
            remaining_capacity[link] = max(
                0.0, remaining_capacity.get(link, default_capacity) - load
            )
    return flow_rate, link_loads


def simulate_fluid(
    topology: Topology,
    traffic: Optional[TrafficMatrix] = None,
    config: Optional[SimulationConfig] = None,
    rng: RngLike = None,
    path_set: Optional[PathSet] = None,
) -> FluidResult:
    """Run the fluid simulator and return per-flow normalized throughputs."""
    rand = ensure_rng(rng)
    if config is None:
        config = SimulationConfig()
    if traffic is None:
        traffic = random_permutation_traffic(topology, rng=rand)
    if len(traffic) == 0:
        return FluidResult()

    if path_set is None:
        path_set = route_demands(topology, traffic, config)

    specs = _build_flow_specs(traffic, path_set, config, rand)
    capacities = link_capacities(topology)
    if config.congestion_control == MPTCP:
        # Each flow keeps one subflow per distinct candidate path; the coupled
        # controller fills better-ranked paths before spilling onto others.
        deduplicated = [
            FlowSpec(
                flow_id=spec.flow_id,
                paths=list(dict.fromkeys(spec.paths)),
                demand=spec.demand,
            )
            for spec in specs
        ]
        flow_rates, link_loads = _allocate_mptcp_sequential(deduplicated, capacities)
        throughputs = [
            min(flow_rates.get(spec.flow_id, 0.0) / spec.demand, 1.0) for spec in specs
        ]
        return FluidResult(flow_throughputs=throughputs, link_loads=link_loads)

    allocation = max_min_fair_allocation(specs, capacities)
    throughputs = []
    for spec in specs:
        rate = allocation.flow_rates.get(spec.flow_id, 0.0)
        throughputs.append(min(rate / spec.demand, 1.0))
    return FluidResult(flow_throughputs=throughputs, link_loads=allocation.link_loads)
