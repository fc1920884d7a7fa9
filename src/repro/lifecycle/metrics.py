"""Incremental metric maintenance between lifecycle events.

A lifecycle applies hundreds to thousands of small topology mutations, and
after every one the engine records a degradation snapshot (components,
stranded servers, server-pair availability).  Recomputing that from scratch
means rebuilding the current topology and relabeling every component per
event -- the cold-rebuild oracle in ``tests/oracles/lifecycle.py`` does
exactly that and exists to be compared against.  This module maintains
the component structure **incrementally**:

* a link failure triggers one *scoped* BFS inside the touched component,
  with early exit as soon as the far endpoint is reached (the common case:
  most single-link failures do not split a random graph);
* a link repair merges at most two components by relabeling the smaller;
* a switch failure re-sweeps only the members of the component it left;
* a switch repair merges the touched components around the returning node;
* expansion rewires randomly across the whole interconnect, so its dirty
  region *is* the graph: the backend relabels once per batch (rare) rather
  than once per event (every event, like the reference).

Under ``traffic="fixed"`` an epoch is a pure function of the topology
state, so :class:`IncrementalMetrics` memoizes epochs by content hash and a
lifecycle that revisits a state (fail + repair is a round trip) prices the
revisit at a lookup.  Per-epoch traffic draws a new matrix every epoch and
gets no such reuse.  Both backends call the same snapshot arithmetic (:func:`component_summary`,
with :func:`availability`) and the same epoch kernel
(:func:`evaluate_epoch`), which is what the parity suite pins: identical
trajectories, float for float.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.lifecycle.events import LifecycleConfig
from repro.lifecycle.state import (
    LINK_DOWN,
    LINK_UP,
    NOOP,
    REBUILD,
    SWITCH_DOWN,
    SWITCH_UP,
    LifecycleState,
    _node_key,
)
from repro.memo import Memo
from repro.topologies.base import Topology
from repro.traffic.matrices import random_permutation_traffic

# --------------------------------------------------------------------------- #
# Shared snapshot arithmetic (both backends call it; parity depends on it)
# --------------------------------------------------------------------------- #


def availability(component_servers: Iterable[int], total_servers: int) -> float:
    """Fraction of ``total_servers``' pairs that can still exchange traffic.

    ``sum(C(s_c, 2)) / C(total_servers, 2)`` over the components' server
    counts ``s_c``.  With the healthy plant's server count as the total,
    servers lost with their failed switches depress availability exactly
    like stranded ones.  Fewer than two servers means no pairs were ever
    promised: availability 1.0.
    """
    if total_servers < 2:
        return 1.0
    pairs = sum(count * (count - 1) // 2 for count in component_servers)
    return pairs / (total_servers * (total_servers - 1) // 2)


def component_summary(
    components: List[Tuple[int, int, str]], plant_servers: int
) -> Dict[str, object]:
    """Snapshot fields from per-component ``(servers, switches, key)`` rows.

    The principal component is the one hosting the most servers (ties: most
    switches, then smallest member ``repr``), computable identically from a
    CSR labeling or an incremental membership table.
    """
    current_servers = sum(servers for servers, _, _ in components)
    current_switches = sum(switches for _, switches, _ in components)
    if components:
        principal = min(components, key=lambda c: (-c[0], -c[1], c[2]))
        principal_servers, principal_switches = principal[0], principal[1]
    else:
        principal_servers = principal_switches = 0
    return {
        "num_components": len(components),
        "switches": current_switches,
        "servers": current_servers,
        "principal_servers": principal_servers,
        "principal_switches": principal_switches,
        "stranded_servers": plant_servers - principal_servers,
        "availability": availability(
            (servers for servers, _, _ in components), plant_servers
        ),
    }


def evaluate_epoch(
    topology: Topology,
    config: LifecycleConfig,
    seed: Optional[int],
    epoch_index: int,
    plant_servers: int,
    path_set=None,
) -> Dict[str, float]:
    """Throughput metrics for one epoch on the current topology.

    Traffic depends on ``config.traffic``:

    * ``"per-epoch"`` (default): an independent random permutation per
      epoch, drawn from a generator derived from ``(seed, epoch_index)``
      alone -- never from a shared stream -- so epochs can be skipped
      (resume) or recomputed in any order without perturbing each other;
    * ``"fixed"``: one tracked workload, drawn from a generator derived
      from ``seed`` alone.  The whole evaluation is then a pure function
      of the topology *state* (the generator's remaining stream after the
      draw depends only on the server list), which is what lets the
      incremental backend memoize epochs by content hash -- a lifecycle
      that revisits a state (fail + repair is a round trip) prices the
      revisit at a dictionary lookup.

    Unreachable pairs ride the degradation contract: they are routed
    around (skip-mode path sets) and scored at exactly 0.0; if failures
    leave fewer than two servers while the plant promised more, the epoch
    scores 0.0 outright, whichever engine runs it (both engines score an
    empty matrix as fully served).
    """
    if config.traffic == "fixed":
        rand = random.Random(f"lifecycle:{seed}:traffic")
    else:
        rand = random.Random(f"lifecycle:{seed}:epoch:{epoch_index}")
    traffic = random_permutation_traffic(topology, rng=rand)
    if not traffic and plant_servers >= 2:
        # Fewer than two servers survive: every promised pair is lost.
        if config.epoch_engine == "path":
            return {"throughput": 0.0, "num_flows": 0.0}
        return {"throughput": 0.0, "fairness": 1.0, "num_flows": 0.0}
    if config.epoch_engine == "path":
        from repro.flow.throughput import degraded_throughput

        outcome = degraded_throughput(topology, traffic=traffic, k=config.k)
        return {
            "throughput": outcome.normalized,
            "num_flows": float(outcome.num_flows),
        }

    from repro.simulation.fluid import SimulationConfig, simulate_fluid

    sim_config = SimulationConfig(
        routing=config.routing,
        k=config.k,
        congestion_control=config.congestion_control,
    )
    result = simulate_fluid(
        topology, traffic, sim_config, rng=rand, path_set=path_set
    )
    return {
        "throughput": result.average_throughput,
        "fairness": result.fairness,
        "num_flows": float(len(result.flow_throughputs)),
    }


# --------------------------------------------------------------------------- #
# The incremental backend
# --------------------------------------------------------------------------- #


class IncrementalMetrics:
    """Component structure maintained by scoped re-sweeps.

    Invariants: ``comp_of`` maps every alive node to a component id,
    ``members`` maps every live component id to its node set, and
    ``adjacency`` mirrors the state's current (alive-only) adjacency.
    Component ids are arbitrary ints -- snapshots never expose them.
    """

    def __init__(self, state: LifecycleState):
        self.state = state
        self.adjacency: Dict[Hashable, Set[Hashable]] = {}
        self.comp_of: Dict[Hashable, int] = {}
        self.members: Dict[int, Set[Hashable]] = {}
        self._next_comp = 0
        #: Cached per-component snapshot rows; components touched since the
        #: last snapshot are in ``_dirty`` and recomputed lazily, so a
        #: snapshot prices at the *changed region*, not the whole graph.
        self._rows: Dict[int, Tuple[int, int, str]] = {}
        self._dirty: Set[int] = set()
        #: Epoch metrics memoized by topology content hash -- sound only
        #: under ``traffic="fixed"``, where an epoch is a pure function of
        #: the state (cleared on expansion, which changes the plant).
        self._epoch_memo = Memo("lifecycle.epochs")
        self._rebuild()

    # -- full relabel (construction and expansion only) -----------------
    def _rebuild(self) -> None:
        self.adjacency = self.state.current_adjacency()
        self.comp_of = {}
        self.members = {}
        self._rows = {}
        self._dirty = set()
        self._epoch_memo.clear()
        self._next_comp = 0
        for node in self.adjacency:
            if node in self.comp_of:
                continue
            comp = self._new_comp()
            self._claim(comp, self._reach(node, self.adjacency))
        # NB: sweep order does not matter -- ids never leave the backend.

    def _new_comp(self) -> int:
        comp = self._next_comp
        self._next_comp += 1
        self.members[comp] = set()
        self._dirty.add(comp)
        return comp

    def _claim(self, comp: int, nodes: Set[Hashable]) -> None:
        self.members[comp] |= nodes
        self._dirty.add(comp)
        for node in nodes:
            self.comp_of[node] = comp

    def _drop_comp(self, comp: int) -> Set[Hashable]:
        self._dirty.discard(comp)
        self._rows.pop(comp, None)
        return self.members.pop(comp)

    def _reach(
        self,
        start: Hashable,
        adjacency: Dict[Hashable, Set[Hashable]],
        stop_at: Optional[Hashable] = None,
    ) -> Set[Hashable]:
        """BFS closure of ``start``; early-exits if ``stop_at`` is met.

        On early exit the returned set is partial -- callers only use it to
        answer "is ``stop_at`` reachable", never as a component.
        """
        seen = {start}
        frontier = [start]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if neighbor in seen:
                        continue
                    if neighbor == stop_at:
                        seen.add(neighbor)
                        return seen
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return seen

    # -- delta application ----------------------------------------------
    def on_event(self, delta: Tuple) -> None:
        kind = delta[0]
        if kind == NOOP:
            return
        if kind == REBUILD:
            self._rebuild()
            return
        if kind == LINK_DOWN:
            _, u, v = delta
            self.adjacency[u].discard(v)
            self.adjacency[v].discard(u)
            side = self._reach(u, self.adjacency, stop_at=v)
            if v in side:
                return  # still one component: the common, cheap case
            old = self.comp_of[u]
            self.members[old] -= side
            self._dirty.add(old)
            self._claim(self._new_comp(), side)
            return
        if kind == LINK_UP:
            _, u, v = delta
            self.adjacency[u].add(v)
            self.adjacency[v].add(u)
            self._merge_into(self.comp_of[u], [self.comp_of[v]])
            return
        if kind == SWITCH_DOWN:
            _, node, neighbors = delta
            comp = self.comp_of.pop(node)
            remnant = self._drop_comp(comp) - {node}
            del self.adjacency[node]
            for neighbor in neighbors:
                self.adjacency[neighbor].discard(node)
            # Re-sweep only the remnant of the component the switch left.
            unvisited = set(remnant)
            while unvisited:
                start = next(iter(unvisited))
                piece = self._reach(start, self.adjacency)
                self._claim(self._new_comp(), piece)
                unvisited -= piece
            return
        if kind == SWITCH_UP:
            _, node, neighbors = delta
            self.adjacency[node] = set(neighbors)
            for neighbor in neighbors:
                self.adjacency[neighbor].add(node)
            comp = self._new_comp()
            self._claim(comp, {node})
            self._merge_into(
                comp, [self.comp_of[neighbor] for neighbor in neighbors]
            )
            return
        raise ValueError(f"unknown delta {kind!r}")

    def _merge_into(self, comp: int, others: List[int]) -> None:
        """Union components, always relabeling the smaller member sets."""
        distinct = {comp}
        distinct.update(others)
        if len(distinct) == 1:
            return
        largest = max(distinct, key=lambda c: len(self.members[c]))
        for other in distinct - {largest}:
            self._claim(largest, self._drop_comp(other))

    # -- outputs ---------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        for comp in self._dirty:
            nodes = self.members.get(comp)
            if not nodes:
                self._rows.pop(comp, None)
                continue
            self._rows[comp] = (
                sum(self.state.servers_of(node) for node in nodes),
                len(nodes),
                min(_node_key(node) for node in nodes),
            )
        self._dirty.clear()
        return component_summary(
            list(self._rows.values()), self.state.plant_servers()
        )

    def epoch(self, epoch_index: int) -> Dict[str, float]:
        topology = self.state.materialize()
        config = self.state.config
        if config.traffic != "fixed":
            return evaluate_epoch(
                topology, config, self.state.seed, epoch_index,
                self.state.plant_servers(),
            )
        if topology.graph.number_of_nodes():
            key = topology.csr().content_hash
        else:
            key = "empty"
        hit = self._epoch_memo.get(key)
        if hit is not None:
            return dict(hit)
        record = evaluate_epoch(
            topology, config, self.state.seed, epoch_index,
            self.state.plant_servers(),
        )
        self._epoch_memo.put(key, dict(record))
        return record
