"""Scalar reference for the round-based AIMD simulator.

This is the dict-of-links round loop that :mod:`repro.simulation.aimd`
vectorized, retained -- like :mod:`oracles.flow` and
:mod:`oracles.routing` -- as the semantic pin for the parity suite
(``tests/test_aimd_parity.py``) and the benchmark trajectory
(``benchmarks/record_sim.py``).  It is never imported by production code
paths.

Two deliberate model fixes distinguish it from the pre-vectorization loop
(both are mirrored by the kernel, which is pinned bit-identical to this
implementation):

* **TCP-8-flows striping cap** -- the fluid model caps each tcp8 connection
  at ``demand / subflows`` per subflow (the application stripes data
  evenly); the historical AIMD loop applied no per-subflow cap, so tcp8
  results were not comparable across the two simulators.  The cap is now
  enforced on every tcp8 subflow's offer.
* **Two-phase window update** -- the historical loop updated windows while
  iterating subflows, so an MPTCP subflow's coupled increase mixed the
  current round's goodput (already-visited siblings) with the previous
  round's (not-yet-visited siblings), an artifact of in-place iteration
  order.  Rounds are now two-phase: every delivery is computed first, then
  every window updates from the completed round's goodputs.

Accumulation orders are chosen to match the vectorized engine exactly:
per-connection sums accumulate in subflow order (``np.bincount`` iterates
its input sequentially), per-link offered load in subflow-major hop order,
and the measured per-connection totals add one completed-round total per
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.routing.paths import PathSet, build_path_set
from repro.simulation.aimd import (
    LOSS_THRESHOLD,
    AimdConfig,
    AimdResult,
    measure_convergence_round,
)
from repro.simulation.capacity import link_capacities
from repro.simulation.fluid import MPTCP, TCP_EIGHT_FLOWS, plan_subflows
from repro.topologies.base import Topology
from repro.traffic.matrices import TrafficMatrix, random_permutation_traffic
from repro.utils.rng import RngLike, ensure_rng

DirectedLink = Tuple[Hashable, Hashable]


@dataclass
class _Subflow:
    connection: int
    path: Tuple[Hashable, ...]
    cwnd: float
    cap: float = float("inf")


def _build_subflows_reference(
    traffic: TrafficMatrix,
    path_set: PathSet,
    config: AimdConfig,
    rand,
) -> Tuple[List[_Subflow], List[float], set]:
    """Create subflows, per-connection demand caps, and unreachable indices.

    A pair absent from a skip-mode path set is unreachable (the topology is
    partitioned): it produces no subflows and its index lands in the
    returned set so result assembly reports it at exactly 0.0, mirroring
    the vectorized engine's degradation semantics.
    """
    tcp8 = config.congestion_control == TCP_EIGHT_FLOWS
    subflows: List[_Subflow] = []
    demands: List[float] = []
    unreachable: set = set()
    for index, demand, options, picks in plan_subflows(
        traffic, path_set, config, rand
    ):
        demand_pkts = demand.rate * config.packets_per_round
        demands.append(demand_pkts)
        if options is not None and not options:
            unreachable.add(index)
        cap = demand_pkts / config.subflows if tcp8 else float("inf")
        for pick in picks:
            subflows.append(_Subflow(index, options[pick], config.initial_cwnd, cap))
    return subflows, demands, unreachable


def simulate_aimd_reference(
    topology: Topology,
    traffic: Optional[TrafficMatrix] = None,
    config: Optional[AimdConfig] = None,
    rng: RngLike = None,
    path_set: Optional[PathSet] = None,
) -> AimdResult:
    """Scalar round-based AIMD simulation (the vectorized engine's pin)."""
    rand = ensure_rng(rng)
    if config is None:
        config = AimdConfig()
    if traffic is None:
        traffic = random_permutation_traffic(topology, rng=rand)
    if len(traffic) == 0:
        return AimdResult()

    pairs = list(traffic.switch_pairs())
    if path_set is None:
        path_set = build_path_set(
            topology.graph,
            pairs,
            scheme=config.routing,
            k=config.k,
            on_unreachable="skip",
        )

    subflows, demands, unreachable = _build_subflows_reference(
        traffic, path_set, config, rand
    )
    capacities = link_capacities(topology, scale=config.packets_per_round)
    mptcp = config.congestion_control == MPTCP
    num_connections = len(demands)

    measured_rounds = 0
    delivered_per_connection = [0.0] * num_connections
    round_goodputs: List[List[float]] = []

    for round_index in range(config.rounds):
        # Phase 1: offers.  Cap each connection's aggregate offer at its
        # demand (the NIC rate); tcp8 subflows are additionally capped at
        # their even-striping share.
        window_total: Dict[int, float] = {}
        for subflow in subflows:
            window_total[subflow.connection] = (
                window_total.get(subflow.connection, 0.0) + subflow.cwnd
            )
        offers: List[float] = []
        for subflow in subflows:
            total = window_total[subflow.connection]
            cap = demands[subflow.connection]
            scale = min(1.0, cap / total) if total > 0 else 0.0
            offers.append(min(subflow.cwnd * scale, subflow.cap))

        # Phase 2: offered load and delivery fraction per link.
        link_offer: Dict[DirectedLink, float] = {}
        for subflow, offer in zip(subflows, offers):
            for link in zip(subflow.path, subflow.path[1:]):
                link_offer[link] = link_offer.get(link, 0.0) + offer
        link_accept: Dict[DirectedLink, float] = {}
        default_capacity = float(config.packets_per_round)
        for link, offer in link_offer.items():
            capacity = capacities.get(link, default_capacity)
            link_accept[link] = 1.0 if offer <= capacity else capacity / offer

        # Phase 3: deliveries and the round's per-connection goodput.
        delivered: List[float] = []
        lost: List[bool] = []
        for subflow, offer in zip(subflows, offers):
            accept = 1.0
            for link in zip(subflow.path, subflow.path[1:]):
                accept = min(accept, link_accept[link])
            delivered.append(offer * accept)
            lost.append(accept < LOSS_THRESHOLD)
        goodput: Dict[int, float] = {}
        for subflow, amount in zip(subflows, delivered):
            goodput[subflow.connection] = (
                goodput.get(subflow.connection, 0.0) + amount
            )
        round_goodputs.append(
            [goodput.get(connection, 0.0) for connection in range(num_connections)]
        )
        if round_index >= config.warmup_rounds:
            measured_rounds += 1
            for connection in range(num_connections):
                delivered_per_connection[connection] += goodput.get(connection, 0.0)

        # Phase 4: window updates from the completed round's goodputs.
        for subflow, amount, was_lost in zip(subflows, delivered, lost):
            if was_lost:
                subflow.cwnd = max(config.initial_cwnd, subflow.cwnd / 2.0)
            elif mptcp:
                # Coupled increase: grow in proportion to this subflow's
                # share of the connection's goodput, so growth shifts to
                # the least congested paths.
                total = goodput.get(subflow.connection, 0.0) or 1.0
                subflow.cwnd += max(0.1, amount / total)
            else:
                subflow.cwnd += 1.0

    # Result assembly (mirrors repro.simulation.aimd._assemble_result).
    crossing = {subflow.connection for subflow in subflows}
    throughputs: List[float] = []
    reported: List[int] = []
    for connection, demand in enumerate(demands):
        if demand <= 0:
            continue
        reported.append(connection)
        if connection in unreachable:
            # Degradation semantics: an unreachable pair carries nothing.
            throughputs.append(0.0)
        elif connection not in crossing:
            # Same-rack traffic never crosses the network, always served.
            throughputs.append(1.0)
        elif measured_rounds == 0:
            throughputs.append(0.0)
        else:
            rate = delivered_per_connection[connection] / measured_rounds
            throughputs.append(min(rate / demands[connection], 1.0))

    convergence = None
    trace = None
    if reported:
        matrix = np.asarray(round_goodputs, dtype=np.float64)[:, reported]
        trace = matrix / np.asarray(
            [demands[connection] for connection in reported], dtype=np.float64
        )
        for column, connection in enumerate(reported):
            if connection not in crossing and connection not in unreachable:
                trace[:, column] = 1.0
        convergence = measure_convergence_round(
            trace,
            config.warmup_rounds,
            tolerance=config.convergence_tolerance,
            window=config.convergence_window,
        )
    return AimdResult(
        flow_throughputs=throughputs,
        rounds=config.rounds,
        convergence_round=convergence,
        trace=trace if config.record_trace else None,
    )
