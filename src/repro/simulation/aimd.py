"""Round-based AIMD (TCP / MPTCP) simulator -- vectorized round engine.

A dynamic counterpart to the steady-state fluid model in
:mod:`repro.simulation.fluid`: congestion windows evolve round by round
(one round approximates one RTT) with additive increase and multiplicative
decrease, and MPTCP subflows use a coupled ("linked increases"-style)
controller that shifts window growth toward less congested paths.  It is a
deliberately small model of the MPTCP authors' packet simulator (see
DESIGN.md, substitution 2), used to cross-validate the fluid results and to
study convergence dynamics (the ``fig12-dynamics`` / ``fig13-dynamics``
sweeps).

Model per round (two-phase: all deliveries are computed, then all windows
update from the completed round's goodputs):

1. every subflow offers ``cwnd`` packets along its fixed path, scaled down
   so a connection's aggregate offer never exceeds its demand (the NIC
   rate); TCP-with-8-flows subflows are additionally capped at
   ``demand / subflows`` each, matching the fluid model's even striping;
2. every directed link can carry ``capacity * packets_per_round`` packets;
   if offers exceed capacity, the excess is dropped proportionally to each
   subflow's offer (drop-tail approximation);
3. subflows that lost packets halve their window; others grow -- plain TCP
   subflows by one packet, MPTCP subflows by an amount weighted toward the
   subflows of the same connection that currently deliver the most goodput.

The round loop is array-native, in the style of the max-min kernel in
:mod:`repro.flow.maxmin`: subflow paths are compiled once into a CSR
subflow->directed-link incidence (``int64`` directed-link keys compacted
to dense link ids, per-subflow hop slices), and each round is a handful of
numpy passes -- per-link offered
load via ``np.bincount`` over the hop->link map, per-link accept ratios in
one divide, per-subflow bottleneck accept via ``np.minimum.reduceat`` over
the hop slices, and per-connection demand caps / coupled-increase totals
via ``np.bincount`` over the subflow->connection map (a segmented sum that
accumulates in subflow order, which is what keeps the results bit-identical
to the scalar reference).  No Python-level per-subflow work happens inside
the round loop.  The hypothesis parity suite in ``tests/test_aimd_parity.py``
pins it against the scalar implementation (``tests/oracles/simulation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.routing.paths import PathSet
from repro.simulation.capacity import link_capacities
from repro.telemetry import count, trace
from repro.simulation.fluid import (
    MPTCP,
    TCP_EIGHT_FLOWS,
    SimulationConfig,
    plan_subflows,
    route_demands,
)
from repro.topologies.base import Topology
from repro.traffic.matrices import TrafficMatrix, random_permutation_traffic
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.stats import jains_fairness_index, mean

DirectedLink = Tuple[Hashable, Hashable]

#: A subflow that delivered less than this fraction of its offer is treated
#: as having lost packets (multiplicative decrease).
LOSS_THRESHOLD = 1.0 - 1e-9


@dataclass(frozen=True)
class AimdConfig:
    """Parameters of the round-based simulator."""

    routing: str = "ksp"
    k: int = 8
    congestion_control: str = MPTCP
    subflows: int = 8
    rounds: int = 200
    warmup_rounds: int = 50
    packets_per_round: int = 100
    initial_cwnd: float = 2.0
    #: Expose the per-round per-connection goodput trace on the result.
    record_trace: bool = False
    #: Settling tolerance for :func:`measure_convergence_round`.
    convergence_tolerance: float = 0.05
    #: Trailing smoothing window (rounds) applied before the settling test,
    #: so AIMD's sawtooth does not mask convergence of the mean allocation.
    convergence_window: int = 8

    def __post_init__(self) -> None:
        # Routing / congestion-control / k / subflows checks are shared with
        # the fluid model's config.
        self.to_simulation_config()
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if not 0 <= self.warmup_rounds < self.rounds:
            raise ValueError(
                f"warmup_rounds ({self.warmup_rounds}) must lie in [0, rounds); "
                f"a warm-up of at least rounds ({self.rounds}) would measure "
                "nothing"
            )
        if self.packets_per_round < 1:
            raise ValueError("packets_per_round must be at least 1")

    def to_simulation_config(self) -> SimulationConfig:
        return SimulationConfig(
            routing=self.routing,
            k=self.k,
            congestion_control=self.congestion_control,
            subflows=self.subflows,
        )


@dataclass
class AimdResult:
    """Per-connection normalized throughput measured after warm-up.

    ``flow_throughputs`` has one entry per positive-rate demand, in demand
    order (same-rack demands count as fully served).  ``convergence_round``
    is the first measured round from which the smoothed per-connection
    goodput stays within the configured tolerance of its settled value
    (``None`` when it never settles or nothing was measured).  ``trace`` is
    the per-round normalized goodput matrix (rounds x reported connections,
    aligned with ``flow_throughputs``), populated only when
    ``AimdConfig.record_trace`` is set.
    """

    flow_throughputs: List[float] = field(default_factory=list)
    rounds: int = 0
    convergence_round: Optional[int] = None
    trace: Optional[np.ndarray] = None

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


def measure_convergence_round(
    trace: np.ndarray,
    warmup_rounds: int,
    tolerance: float = 0.05,
    window: int = 8,
) -> Optional[int]:
    """First measured round from which per-connection goodput has settled.

    ``trace`` is the full per-round normalized goodput matrix (all rounds,
    one column per reported connection).  Rounds before ``warmup_rounds``
    are ignored.  Each measured column is smoothed with a trailing moving
    average of ``window`` rounds; the settled value is the final smoothed
    allocation, and a round counts as settled when every connection's
    smoothed goodput is within ``tolerance`` of it.  Returns the absolute
    round index of the first round from which *all* subsequent rounds are
    settled.  The settled tail must hold for at least ``max(2, window)``
    rounds -- the final round is always trivially within tolerance of
    itself, so a trace still drifting at the end (or a measurement window
    shorter than the required tail) reports ``None`` (not converged) rather
    than a spurious last-minute settling.
    """
    trace = np.asarray(trace, dtype=np.float64)
    if trace.ndim != 2:
        raise ValueError("trace must be a (rounds, connections) matrix")
    measured = trace[warmup_rounds:]
    num_rounds, num_connections = measured.shape
    if num_connections == 0 or num_rounds < max(2, int(window)):
        # Too short to demonstrate a settled tail of the promised length.
        return None
    window = max(1, min(int(window), num_rounds))
    # Trailing moving average via a padded cumulative sum: smooth[r] is the
    # mean of rounds max(0, r-window+1)..r.
    padded = np.zeros((num_rounds + 1, num_connections), dtype=np.float64)
    np.cumsum(measured, axis=0, out=padded[1:])
    starts = np.maximum(np.arange(num_rounds) - window + 1, 0)
    lengths = (np.arange(num_rounds) - starts + 1).astype(np.float64)
    smooth = (padded[1:] - padded[starts]) / lengths[:, None]
    deviation = np.abs(smooth - smooth[-1]).max(axis=1)
    unsettled = np.flatnonzero(deviation > tolerance)
    if unsettled.size == 0:
        return warmup_rounds
    last_bad = int(unsettled[-1])
    if last_bad >= num_rounds - max(2, window):
        return None
    return warmup_rounds + last_bad + 1


# --------------------------------------------------------------------------- #
# Subflow compilation
# --------------------------------------------------------------------------- #
@dataclass
class _CompiledSubflows:
    """The round engine's static state, compiled once per simulation.

    ``hop_links`` concatenates every subflow's path as directed-link ids;
    ``hop_starts``/``hop_counts`` delimit the per-subflow slices (every
    subflow has at least one hop -- same-rack demands never produce
    subflows).  ``connection_of`` maps subflows to demand indices,
    ``subflow_cap`` holds the per-subflow offer cap (``inf`` unless tcp8),
    and ``link_capacity`` the per-link-id packet budget.  ``unreachable``
    marks connections whose pair has no route on a partitioned topology --
    they produce no subflows and are reported at exactly 0.0 (the
    degradation semantics of :mod:`repro.failures.degradation`), distinct
    from same-rack connections which also lack subflows but count as fully
    served.
    """

    hop_links: np.ndarray
    hop_starts: np.ndarray
    hop_counts: np.ndarray
    connection_of: np.ndarray
    subflow_cap: np.ndarray
    link_capacity: np.ndarray
    demands: np.ndarray
    has_subflows: np.ndarray
    unreachable: np.ndarray
    num_connections: int
    num_subflows: int


def _compile_subflows(
    topology: Topology,
    traffic: TrafficMatrix,
    path_set: PathSet,
    config: AimdConfig,
    rand,
) -> _CompiledSubflows:
    """Compile traffic + paths into the engine's incidence arrays.

    Paths come from :func:`repro.simulation.fluid.plan_subflows`, as in the
    scalar reference; each pair's options are compiled to link ids once.
    """
    csr = topology.csr()
    index_of = csr.index_of
    num_nodes = csr.num_nodes
    tcp8 = config.congestion_control == TCP_EIGHT_FLOWS

    # Per-pair compiled paths: each option becomes an int64 array of
    # directed-link keys (u * n + v in CSR index space).
    compiled_pairs: Dict[Tuple[Hashable, Hashable], List[np.ndarray]] = {}

    def compile_options(options) -> List[np.ndarray]:
        arrays = []
        for path in options:
            indices = np.fromiter(
                (index_of[node] for node in path), dtype=np.int64, count=len(path)
            )
            arrays.append(indices[:-1] * num_nodes + indices[1:])
        return arrays

    chunks: List[np.ndarray] = []
    connection_of: List[int] = []
    hop_counts: List[int] = []
    subflow_cap: List[float] = []
    demands: List[float] = []
    has_subflows: List[bool] = []
    unreachable: List[bool] = []

    for index, demand, options, picks in plan_subflows(
        traffic, path_set, config, rand
    ):
        demand_pkts = demand.rate * config.packets_per_round
        demands.append(demand_pkts)
        # Same-rack traffic never crosses the network; an unreachable pair
        # gets no subflows and is reported at 0.0 (degradation semantics).
        has_subflows.append(bool(picks))
        unreachable.append(options is not None and not options)
        if not picks:
            continue
        pair = (demand.source_switch, demand.destination_switch)
        compiled = compiled_pairs.get(pair)
        if compiled is None:
            compiled = compiled_pairs[pair] = compile_options(options)
        cap = demand_pkts / config.subflows if tcp8 else np.inf
        for pick in picks:
            links = compiled[pick]
            chunks.append(links)
            connection_of.append(index)
            hop_counts.append(len(links))
            subflow_cap.append(cap)

    num_subflows = len(chunks)
    if num_subflows:
        hop_keys = np.concatenate(chunks)
    else:
        hop_keys = np.empty(0, dtype=np.int64)
    # Compact the directed-link keys into dense link ids.
    unique_keys, hop_links = np.unique(hop_keys, return_inverse=True)
    hop_counts_arr = np.asarray(hop_counts, dtype=np.int64)
    hop_starts = np.zeros(num_subflows + 1, dtype=np.int64)
    np.cumsum(hop_counts_arr, out=hop_starts[1:])

    capacities = link_capacities(topology, scale=config.packets_per_round)
    nodes = csr.nodes
    default = float(config.packets_per_round)
    link_capacity = np.asarray(
        [
            capacities.get(
                (nodes[int(key // num_nodes)], nodes[int(key % num_nodes)]), default
            )
            for key in unique_keys
        ],
        dtype=np.float64,
    )

    return _CompiledSubflows(
        hop_links=hop_links.astype(np.intp, copy=False),
        hop_starts=hop_starts[:-1],
        hop_counts=hop_counts_arr,
        connection_of=np.asarray(connection_of, dtype=np.intp),
        subflow_cap=np.asarray(subflow_cap, dtype=np.float64),
        link_capacity=link_capacity,
        demands=np.asarray(demands, dtype=np.float64),
        has_subflows=np.asarray(has_subflows, dtype=bool),
        unreachable=np.asarray(unreachable, dtype=bool),
        num_connections=len(demands),
        num_subflows=num_subflows,
    )


# --------------------------------------------------------------------------- #
# The round engine
# --------------------------------------------------------------------------- #
def _run_rounds(
    compiled: _CompiledSubflows, config: AimdConfig
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Run the AIMD rounds; returns (per-round goodput, measured totals, n).

    The per-round matrix covers every connection (rounds x connections,
    absolute packet counts); ``measured totals`` accumulates the rounds at
    or past warm-up, adding one per-round total per connection per round --
    the same grouping the scalar reference uses, so sums are bit-identical.
    """
    mptcp = config.congestion_control == MPTCP
    conn = compiled.connection_of
    num_connections = compiled.num_connections
    hop_links = compiled.hop_links
    hop_starts = compiled.hop_starts
    hop_counts = compiled.hop_counts
    sub_cap = compiled.subflow_cap
    link_capacity = compiled.link_capacity
    demands = compiled.demands
    num_links = link_capacity.shape[0]

    cwnd = np.full(compiled.num_subflows, config.initial_cwnd, dtype=np.float64)
    round_goodput = np.zeros((config.rounds, num_connections), dtype=np.float64)
    measured_totals = np.zeros(num_connections, dtype=np.float64)
    measured_rounds = 0
    scale = np.empty(num_connections, dtype=np.float64)

    for round_index in range(config.rounds):
        # Cap each connection's aggregate offer at its demand (the NIC
        # rate); np.bincount accumulates in subflow order, matching the
        # reference's sequential per-connection sums bit-for-bit.
        window_total = np.bincount(conn, weights=cwnd, minlength=num_connections)
        positive = window_total > 0.0
        np.divide(demands, window_total, out=scale, where=positive)
        np.minimum(scale, 1.0, out=scale, where=positive)
        scale[~positive] = 0.0
        offers = cwnd * scale[conn]
        np.minimum(offers, sub_cap, out=offers)  # tcp8 even-striping cap

        # Offered load and delivery fraction per link (proportional drop).
        hop_offers = np.repeat(offers, hop_counts)
        link_offer = np.bincount(hop_links, weights=hop_offers, minlength=num_links)
        link_accept = np.ones(num_links, dtype=np.float64)
        congested = link_offer > link_capacity
        np.divide(link_capacity, link_offer, out=link_accept, where=congested)

        # Bottleneck accept per subflow: segmented minimum over hop slices.
        accept = np.minimum.reduceat(link_accept[hop_links], hop_starts)
        delivered = offers * accept
        lost = accept < LOSS_THRESHOLD

        goodput = np.bincount(conn, weights=delivered, minlength=num_connections)
        round_goodput[round_index] = goodput
        if round_index >= config.warmup_rounds:
            measured_rounds += 1
            measured_totals += goodput

        # Window update from the completed round's goodputs.
        if mptcp:
            # Coupled increase: grow in proportion to this subflow's share
            # of the connection's goodput, so growth shifts to the least
            # congested paths.
            denominator = np.where(goodput == 0.0, 1.0, goodput)
            increase = np.maximum(0.1, delivered / denominator[conn])
        else:
            increase = 1.0
        cwnd = np.where(
            lost, np.maximum(config.initial_cwnd, cwnd / 2.0), cwnd + increase
        )

    return round_goodput, measured_totals, measured_rounds


def _assemble_result(
    compiled: _CompiledSubflows,
    round_goodput: np.ndarray,
    measured_totals: np.ndarray,
    measured_rounds: int,
    config: AimdConfig,
) -> AimdResult:
    """Normalize goodputs into an :class:`AimdResult` (shared with the
    reference engine, so result assembly is identical by construction)."""
    reported = np.flatnonzero(compiled.demands > 0)
    throughputs: List[float] = []
    for connection in reported.tolist():
        if compiled.unreachable[connection]:
            # Degradation semantics: an unreachable pair carries nothing.
            throughputs.append(0.0)
        elif not compiled.has_subflows[connection]:
            # Same-rack traffic never crosses the network, always served.
            throughputs.append(1.0)
        elif measured_rounds == 0:
            throughputs.append(0.0)
        else:
            rate = measured_totals[connection] / measured_rounds
            throughputs.append(min(rate / compiled.demands[connection], 1.0))

    convergence = None
    trace = None
    if reported.size:
        # Normalized per-round trace over the reported connections; served
        # same-rack columns sit at 1.0 by definition, unreachable ones at 0.
        trace = round_goodput[:, reported] / compiled.demands[reported]
        served_locally = (
            ~compiled.has_subflows[reported] & ~compiled.unreachable[reported]
        )
        trace[:, served_locally] = 1.0
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


def simulate_aimd(
    topology: Topology,
    traffic: Optional[TrafficMatrix] = None,
    config: Optional[AimdConfig] = None,
    rng: RngLike = None,
    path_set: Optional[PathSet] = None,
) -> AimdResult:
    """Run the round-based AIMD simulation and report normalized throughput.

    When ``path_set`` is not supplied, routes come from the content-hash
    shared path table (:func:`repro.simulation.fluid.route_demands`), so
    repeated simulations over one topology -- the dynamics sweeps' per-seed
    trials -- route each switch pair once.
    """
    rand = ensure_rng(rng)
    if config is None:
        config = AimdConfig()
    if traffic is None:
        traffic = random_permutation_traffic(topology, rng=rand)
    if len(traffic) == 0:
        return AimdResult()

    if path_set is None:
        path_set = route_demands(topology, traffic, config)

    with trace("aimd.compile", connections=len(traffic)) as span:
        compiled = _compile_subflows(topology, traffic, path_set, config, rand)
        span.add(
            subflows=compiled.num_subflows,
            links=int(compiled.link_capacity.shape[0]),
        )
    with trace(
        "aimd.rounds", rounds=config.rounds, subflows=compiled.num_subflows
    ):
        round_goodput, measured_totals, measured_rounds = _run_rounds(
            compiled, config
        )
    result = _assemble_result(
        compiled, round_goodput, measured_totals, measured_rounds, config
    )
    if result.convergence_round is not None:
        # Rounds-to-convergence as a domain counter on the enclosing span
        # (if any): visible in `repro stats` without a trace of its own.
        count("aimd.rounds_to_convergence", result.convergence_round)
    return result
