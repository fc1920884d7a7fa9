"""Topology ensembles: batches of seeded random-graph instances.

The paper's headline claims are ensemble statements -- Fig 2(c)'s scaling
and Fig 8's failure gracefulness hold for *almost every* random regular
graph, not one lucky sample -- and the related systems literature (Jyothi et
al., *High Throughput Data Center Topology Design*; Yu et al., *Space
Shuffle*) evaluates designs over hundreds of sampled instances per point.
This module generates those batches array-natively:

* :class:`EnsembleSpec` declares a batch: instance count, RRG parameters,
  construction method and a base seed from which per-instance seeds are
  spawned (:func:`repro.utils.rng.spawn_seeds`, so instance ``i`` is
  reproducible without building ``0..i-1``... the whole list derives from
  the base seed).
* :func:`generate_cores` / :func:`build_ensemble` produce
  :class:`~repro.topologies.core.TopologyCore` instances (no ``networkx``
  graph is ever materialized) sharing one construction scratch buffer
  across the batch.
* :func:`ensemble_summary` aggregates per-instance structural metrics.
* ``ensemble_*_point`` functions are picklable scenario targets, so
  ensemble sweeps shard across worker processes through the existing
  :class:`~repro.engine.runner.SweepRunner` like any other experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.graphs.regular import regular_rows, stub_matching_regular_rows
from repro.telemetry import trace
from repro.topologies.core import TopologyCore, TopologyError
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import RngLike, ensure_rng, spawn_seeds


@dataclass(frozen=True)
class EnsembleSpec:
    """A batch of seeded ``RRG(N, k, r)`` instances.

    ``servers_per_switch`` defaults to ``ports_per_switch - network_degree``
    (every non-network port hosts a server, as in
    :meth:`JellyfishTopology.build`).
    """

    num_instances: int
    num_switches: int
    ports_per_switch: int
    network_degree: int
    servers_per_switch: Optional[int] = None
    method: str = "sequential"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_instances < 0:
            raise ValueError("num_instances must be non-negative")
        if self.network_degree > self.ports_per_switch:
            raise TopologyError(
                "network_degree cannot exceed ports_per_switch "
                f"({self.network_degree} > {self.ports_per_switch})"
            )
        servers = self.resolved_servers_per_switch
        if servers < 0:
            raise TopologyError("servers_per_switch must be non-negative")
        if self.network_degree + servers > self.ports_per_switch:
            raise TopologyError(
                "network_degree + servers_per_switch exceeds ports_per_switch"
            )

    @property
    def resolved_servers_per_switch(self) -> int:
        if self.servers_per_switch is not None:
            return self.servers_per_switch
        return self.ports_per_switch - self.network_degree

    @property
    def effective_degree(self) -> int:
        """Construction degree (one lower when ``N * r`` is odd, as in the paper)."""
        degree = self.network_degree
        if (self.num_switches * degree) % 2 != 0:
            degree -= 1
        return degree

    def instance_seeds(self) -> List[int]:
        """Per-instance construction seeds spawned from the base seed."""
        return spawn_seeds(self.seed, self.num_instances)


def _build_core(spec: EnsembleSpec, instance_seed: int, scratch: dict, ports, servers):
    with trace(
        "ensemble.build_core",
        switches=spec.num_switches,
        degree=spec.effective_degree,
    ):
        return _build_core_inner(spec, instance_seed, scratch, ports, servers)


def _build_core_inner(
    spec: EnsembleSpec, instance_seed: int, scratch: dict, ports, servers
):
    if spec.method == "stubs":
        rows = stub_matching_regular_rows(
            spec.num_switches,
            spec.effective_degree,
            ensure_rng(instance_seed),
            scratch=scratch,
        )
    elif spec.method == "sequential":
        rows = regular_rows(
            spec.num_switches,
            spec.effective_degree,
            ensure_rng(instance_seed),
            method=spec.method,
        )
    else:
        # Ablation methods (pairing, networkx) have no rows-native path;
        # derive the core from the constructed graph, matching what the
        # sharded scenario points (JellyfishTopology.build) produce.
        from repro.graphs.regular import random_regular_graph

        graph = random_regular_graph(
            spec.num_switches,
            spec.effective_degree,
            ensure_rng(instance_seed),
            method=spec.method,
        )
        return TopologyCore.from_graph(
            graph,
            {node: spec.ports_per_switch for node in graph.nodes},
            {node: spec.resolved_servers_per_switch for node in graph.nodes},
        )
    return TopologyCore(range(spec.num_switches), rows, ports, servers)


def single_rrg_core(
    num_switches: int,
    ports_per_switch: int,
    network_degree: int,
    seed: RngLike = None,
    method: str = "stubs",
    servers_per_switch: Optional[int] = None,
) -> TopologyCore:
    """One seeded ``RRG(N, k, r)`` core, built array-natively.

    The single-instance entry point the hyperscale experiments use:
    defaults to the vectorized stub-matching constructor (the only one that
    is practical at 10k-100k switches) and never materializes a
    ``networkx`` graph.  Degree handling (odd ``N * r``) matches
    :class:`EnsembleSpec`.
    """
    spec = EnsembleSpec(
        num_instances=1,
        num_switches=num_switches,
        ports_per_switch=ports_per_switch,
        network_degree=network_degree,
        servers_per_switch=servers_per_switch,
        method=method,
        seed=0,
    )
    ports = [ports_per_switch] * num_switches
    servers = [spec.resolved_servers_per_switch] * num_switches
    rng = ensure_rng(seed)
    return _build_core(spec, rng, {}, ports, servers)


def generate_cores(spec: EnsembleSpec) -> Iterator[Tuple[int, TopologyCore]]:
    """Yield ``(instance_seed, core)`` pairs for every instance in the batch.

    One scratch dict (stub buffers) and one shared read-only ports template
    serve the whole batch; each core gets its own server vector so
    per-instance mutation stays isolated.
    """
    scratch: dict = {}
    ports = [spec.ports_per_switch] * spec.num_switches
    servers = [spec.resolved_servers_per_switch] * spec.num_switches
    for instance_seed in spec.instance_seeds():
        yield instance_seed, _build_core(spec, instance_seed, scratch, ports, servers)


def build_ensemble(spec: EnsembleSpec) -> List[JellyfishTopology]:
    """Materialize the batch as (lazy, core-backed) Jellyfish topologies."""
    return [
        JellyfishTopology.from_core(core, name=f"jellyfish-ens-{index}")
        for index, (_, core) in enumerate(generate_cores(spec))
    ]


def _mean_std(values: List[float]) -> Tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    return mean, math.sqrt(variance)


def _structural_metrics(topology: JellyfishTopology) -> dict:
    """Per-instance metric dict (shape shared with the scenario target)."""
    connected = topology.is_connected()
    metrics = {
        "content_hash": topology.content_hash(),
        "connected": bool(connected),
        "num_links": topology.num_links,
    }
    if connected and topology.num_switches >= 2:
        metrics["mean_path_length"] = topology.switch_average_path_length()
        metrics["diameter"] = topology.switch_diameter()
    return metrics


def summarize_instance_metrics(metrics: List[dict]) -> dict:
    """Aggregate per-instance structural metrics (JSON-friendly).

    Reports connectivity rate, mean/std of mean path length and diameter
    over the *connected* instances, and the number of distinct content
    hashes (collisions would indicate seed reuse).
    """
    connected = [m for m in metrics if m.get("connected")]
    path_lengths = [m["mean_path_length"] for m in connected if "mean_path_length" in m]
    diameters = [float(m["diameter"]) for m in connected if "diameter" in m]
    mean_path, std_path = _mean_std(path_lengths)
    mean_diameter, std_diameter = _mean_std(diameters)
    return {
        "num_instances": len(metrics),
        "connected_instances": len(connected),
        "distinct_hashes": len({m["content_hash"] for m in metrics}),
        "mean_path_length_mean": mean_path,
        "mean_path_length_std": std_path,
        "diameter_mean": mean_diameter,
        "diameter_std": std_diameter,
    }


def ensemble_summary(spec: EnsembleSpec) -> dict:
    """Structural statistics over the whole batch (serial, shared scratch)."""
    return summarize_instance_metrics(
        [
            _structural_metrics(JellyfishTopology.from_core(core))
            for _, core in generate_cores(spec)
        ]
    )


def ensemble_point_specs(spec: EnsembleSpec) -> list:
    """One :class:`~repro.engine.spec.ScenarioSpec` per instance.

    Each point carries its spawned instance seed explicitly (``shared``
    strategy), so running the specs through a sharded
    :class:`~repro.engine.runner.SweepRunner` computes exactly the
    instances :func:`generate_cores` would build serially -- and caches
    them content-addressed like any other scenario point.
    """
    from repro.engine.spec import ScenarioSpec

    return [
        ScenarioSpec.grid(
            "repro.topologies.ensemble:ensemble_instance_metrics",
            name=f"ensemble-{spec.method}-{spec.num_switches}-{index}",
            seed=instance_seed,
            seed_strategy="shared",
            num_switches=spec.num_switches,
            ports=spec.ports_per_switch,
            network_degree=spec.network_degree,
            servers_per_switch=spec.servers_per_switch,
            method=spec.method,
            instance=index,
        )
        for index, instance_seed in enumerate(spec.instance_seeds())
    ]


# --------------------------------------------------------------------------- #
# Picklable scenario targets (engine sweeps shard these across workers)
# --------------------------------------------------------------------------- #
def ensemble_instance_metrics(
    num_switches: int,
    ports: int,
    network_degree: int,
    instance: int = 0,
    method: str = "sequential",
    servers_per_switch: Optional[int] = None,
    seed: Optional[int] = None,
) -> dict:
    """Structural metrics of one ensemble instance (scenario target).

    ``instance`` is the grid axis that separates the per-point derived
    seeds; the construction itself only consumes ``seed``.
    """
    del instance  # axis only: distinguishes points so derived seeds differ
    topology = JellyfishTopology.build(
        num_switches,
        ports,
        network_degree,
        rng=seed,
        servers_per_switch=servers_per_switch,
        method=method,
    )
    return _structural_metrics(topology)


def ensemble_failure_point(
    num_switches: int,
    ports: int,
    num_servers: int,
    fraction: float,
    instance: int = 0,
    k: int = 8,
    seed: Optional[int] = None,
) -> dict:
    """Mask-based link failure throughput of one instance (scenario target).

    Builds an equipment-constrained Jellyfish, fails ``fraction`` of its
    links through the vectorized mask path (no graph copy, no edge-by-edge
    removal) and evaluates normalized permutation throughput, counting
    disconnected demand pairs as zero like Fig 8 does.
    """
    del instance
    from repro.failures.injection import fail_random_links_core
    from repro.flow.throughput import degraded_throughput

    rng = ensure_rng(seed)
    topology = JellyfishTopology.from_equipment(
        num_switches, ports, num_servers, rng=rng
    )
    failed_core = fail_random_links_core(topology.core(), fraction, rng)
    failed = JellyfishTopology.from_core(
        failed_core, name=f"{topology.name}+{fraction:.0%}-link-failures"
    )
    return {
        "throughput": degraded_throughput(failed, k=k, rng=rng).normalized,
        "connected": bool(failed.is_connected()),
        "failed_links": int(topology.core().num_edges - failed_core.num_edges),
    }


def ensemble_bisection_point(
    num_switches: int,
    ports: int,
    servers: int,
    trials: int = 3,
    instance: int = 0,
    seed: Optional[int] = None,
) -> dict:
    """Measured normalized bisection of one sampled RRG (scenario target).

    Samples the concrete graph behind Fig 2(a)'s analytic curve point and
    measures a Kernighan-Lin bisection estimate, normalized by the server
    bandwidth in one partition -- the ensemble check that the Bollobas
    lower bound used in the figure actually holds per instance.
    """
    del instance
    from repro.graphs.bisection import estimate_bisection_bandwidth

    servers_per_switch = servers / num_switches
    network_degree = ports - math.ceil(servers_per_switch)
    if network_degree <= 0:
        return {"normalized_bisection": 0.0, "network_degree": 0}
    rng = ensure_rng(seed)
    topology = JellyfishTopology.build(
        num_switches,
        ports,
        network_degree,
        rng=rng,
        servers_per_switch=0,
    )
    cut = estimate_bisection_bandwidth(topology.graph, trials=trials, rng=rng)
    return {
        "normalized_bisection": cut / (servers / 2.0),
        "network_degree": network_degree,
    }
