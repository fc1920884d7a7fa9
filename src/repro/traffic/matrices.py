"""Traffic matrices.

The paper's standard workload is *random permutation traffic*: every server
sends at its full line rate to exactly one other server and receives from
exactly one other server, with the permutation drawn uniformly at random
(Section 4, "Evaluation methodology").  All-to-all, stride and hotspot
patterns are provided for additional experiments and tests.

A :class:`TrafficMatrix` holds server-level demands; because the flow and
simulation machinery routes between switches, it also exposes the demands
aggregated to (source switch, destination switch) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.topologies.base import Topology
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_positive

Server = Tuple[Hashable, int]


@dataclass(frozen=True)
class SwitchDemandArrays:
    """Aggregated switch-pair demands in array form.

    ``pairs[i]`` is the i-th demanded (source switch, destination switch)
    pair in first-occurrence order (the same order ``switch_pairs`` keys
    iterate); ``src``/``dst`` are the pairs as ``int32`` indices into the
    topology's sorted-switch index (the CSR node order) and ``rates`` the
    aggregated demand per pair.  Flow assembly consumes these instead of
    re-walking the server-level demand list dict-by-dict.
    """

    pairs: List[Tuple[Hashable, Hashable]]
    src: np.ndarray
    dst: np.ndarray
    rates: np.ndarray


@dataclass(frozen=True)
class Demand:
    """A single server-to-server demand.

    Frozen: derive a scaled copy with :meth:`TrafficMatrix.scaled` instead
    of editing rates.
    """

    source: Server
    destination: Server
    rate: float

    @property
    def source_switch(self) -> Hashable:
        return self.source[0]

    @property
    def destination_switch(self) -> Hashable:
        return self.destination[0]


@dataclass
class TrafficMatrix:
    """Collection of server-level demands over a topology."""

    demands: List[Demand] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.demands)

    def __iter__(self):
        return iter(self.demands)

    def total_demand(self) -> float:
        return sum(d.rate for d in self.demands)

    def switch_pairs(self) -> Dict[Tuple[Hashable, Hashable], float]:
        """Aggregate demands by (source switch, destination switch).

        Demands whose endpoints share a switch never touch the network and
        are excluded.  Keys are in first-occurrence order.
        """
        aggregated: Dict[Tuple[Hashable, Hashable], float] = {}
        for demand in self.demands:
            src, dst = demand.source_switch, demand.destination_switch
            if src == dst:
                continue
            key = (src, dst)
            aggregated[key] = aggregated.get(key, 0.0) + demand.rate
        return aggregated

    def as_switch_array(self, index_of: Dict[Hashable, int]) -> SwitchDemandArrays:
        """Aggregated demand triplets as numpy arrays.

        ``index_of`` maps switches to the topology's sorted-switch index
        (``csr.index_of``).  Pair order is the ``switch_pairs``
        first-occurrence order, and the per-pair rates are the exact same
        floats, so LP rows assembled from these arrays are bit-identical to
        the dict walk they replace.
        """
        pairs_dict = self.switch_pairs()
        pairs = list(pairs_dict)
        return SwitchDemandArrays(
            pairs=pairs,
            src=np.asarray([index_of[src] for src, _ in pairs], dtype=np.int32),
            dst=np.asarray([index_of[dst] for _, dst in pairs], dtype=np.int32),
            rates=np.asarray(list(pairs_dict.values()), dtype=np.float64),
        )

    def scaled(self, factor: float) -> "TrafficMatrix":
        """Return a copy with every demand multiplied by ``factor``."""
        require_positive(factor, "factor")
        return TrafficMatrix(
            [Demand(d.source, d.destination, d.rate * factor) for d in self.demands]
        )


def random_permutation_traffic(
    topology: Topology, rate: float = 1.0, rng: RngLike = None
) -> TrafficMatrix:
    """Random permutation traffic at the server level.

    Each server sends ``rate`` to a single uniformly chosen other server and
    receives from a single other server.  Fixed points (a server sending to
    itself) are avoided by re-drawing, except in the degenerate one-server
    case where an empty matrix is returned.
    """
    require_positive(rate, "rate")
    rand = ensure_rng(rng)
    servers = [tuple(item) for item in topology.server_list()]
    if len(servers) < 2:
        return TrafficMatrix([])

    destinations = _random_derangement(servers, rand)
    demands = [
        Demand(source=src, destination=dst, rate=rate)
        for src, dst in zip(servers, destinations)
    ]
    return TrafficMatrix(demands)


def _random_derangement(items: List[Server], rand) -> List[Server]:
    """Uniform-ish random derangement (permutation without fixed points)."""
    while True:
        shuffled = items[:]
        rand.shuffle(shuffled)
        if all(a != b for a, b in zip(items, shuffled)):
            return shuffled


def all_to_all_traffic(topology: Topology, rate: float = 1.0) -> TrafficMatrix:
    """Every server sends ``rate`` split evenly to every other server."""
    require_positive(rate, "rate")
    servers = [tuple(item) for item in topology.server_list()]
    if len(servers) < 2:
        return TrafficMatrix([])
    per_pair = rate / (len(servers) - 1)
    demands = [
        Demand(source=src, destination=dst, rate=per_pair)
        for src in servers
        for dst in servers
        if src != dst
    ]
    return TrafficMatrix(demands)


def stride_traffic(topology: Topology, stride: int, rate: float = 1.0) -> TrafficMatrix:
    """Server ``i`` sends to server ``(i + stride) mod num_servers``."""
    require_positive(rate, "rate")
    servers = [tuple(item) for item in topology.server_list()]
    count = len(servers)
    if count < 2:
        return TrafficMatrix([])
    stride = stride % count
    if stride == 0:
        raise ValueError("stride must not be a multiple of the server count")
    demands = [
        Demand(source=servers[i], destination=servers[(i + stride) % count], rate=rate)
        for i in range(count)
    ]
    return TrafficMatrix(demands)


def hotspot_traffic(
    topology: Topology,
    num_hotspots: int = 1,
    rate: float = 1.0,
    rng: RngLike = None,
) -> TrafficMatrix:
    """All servers send to a small set of hotspot servers (skewed workload)."""
    require_positive(rate, "rate")
    rand = ensure_rng(rng)
    servers = [tuple(item) for item in topology.server_list()]
    if len(servers) < 2:
        return TrafficMatrix([])
    if not 1 <= num_hotspots < len(servers):
        raise ValueError("num_hotspots must be in [1, num_servers)")
    hotspots = rand.sample(servers, num_hotspots)
    hotspot_set = set(hotspots)
    demands = []
    for index, src in enumerate(servers):
        if src in hotspot_set:
            continue
        dst = hotspots[index % num_hotspots]
        demands.append(Demand(source=src, destination=dst, rate=rate))
    return TrafficMatrix(demands)
