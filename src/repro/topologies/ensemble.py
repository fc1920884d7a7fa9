"""Topology ensembles: batches of seeded random-graph instances.

The paper's headline claims are ensemble statements -- Fig 2(c)'s scaling
and Fig 8's failure gracefulness hold for *almost every* random regular
graph, not one lucky sample -- and the related systems literature (Jyothi et
al., *High Throughput Data Center Topology Design*; Yu et al., *Space
Shuffle*) evaluates designs over hundreds of sampled instances per point.
This module generates those batches:

* :func:`ensemble_point_specs` turns a batch -- instance count, RRG
  parameters, construction method and a base seed -- into one scenario
  point per instance.  Per-instance seeds are spawned from the base seed
  (:func:`repro.utils.rng.spawn_seeds`), and every instance is built by
  :func:`~repro.topologies.jellyfish.rrg_core`, the one RRG build.
  :func:`summarize_instance_metrics` aggregates the points' structural
  metrics.
* :func:`single_rrg_core` builds one array-native instance for the
  hyperscale experiments.
* ``ensemble_*_point`` / ``ensemble_instance_metrics`` are picklable
  scenario targets, so ensemble sweeps run serially or shard across worker
  processes through :class:`~repro.engine.runner.SweepRunner` like any
  other experiment.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.telemetry import trace
from repro.topologies.core import TopologyCore
from repro.topologies.jellyfish import JellyfishTopology, rrg_budget, rrg_core
from repro.utils.rng import RngLike, ensure_rng, spawn_seeds
from repro.utils.stats import mean_std


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
    ``networkx`` graph.  Traced as ``ensemble.build_core``.
    """
    _, degree = rrg_budget(
        num_switches, ports_per_switch, network_degree, servers_per_switch
    )
    with trace("ensemble.build_core", switches=num_switches, degree=degree):
        return rrg_core(
            num_switches,
            ports_per_switch,
            network_degree,
            seed,
            servers_per_switch=servers_per_switch,
            method=method,
        )


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
    mean_path, std_path = mean_std(path_lengths)
    mean_diameter, std_diameter = mean_std(diameters)
    return {
        "num_instances": len(metrics),
        "connected_instances": len(connected),
        "distinct_hashes": len({m["content_hash"] for m in metrics}),
        "mean_path_length_mean": mean_path,
        "mean_path_length_std": std_path,
        "diameter_mean": mean_diameter,
        "diameter_std": std_diameter,
    }


def ensemble_point_specs(
    num_instances: int,
    num_switches: int,
    ports_per_switch: int,
    network_degree: int,
    servers_per_switch: Optional[int] = None,
    method: str = "sequential",
    seed: int = 0,
) -> list:
    """One :class:`~repro.engine.spec.ScenarioSpec` per instance of a batch.

    The port budget is checked up front (:func:`rrg_budget` raises).  Each
    point carries its instance seed (``spawn_seeds(seed, num_instances)``)
    explicitly (``shared`` strategy), so running the specs through a
    :class:`~repro.engine.runner.SweepRunner`, serial or sharded, builds
    ``rrg_core(..., instance_seed, ...)`` for every instance -- and caches
    the points content-addressed like any other scenario point.
    """
    from repro.engine.spec import ScenarioSpec

    if num_instances < 0:
        raise ValueError("num_instances must be non-negative")
    rrg_budget(num_switches, ports_per_switch, network_degree, servers_per_switch)
    return [
        ScenarioSpec.grid(
            "repro.topologies.ensemble:ensemble_instance_metrics",
            name=f"ensemble-{method}-{num_switches}-{index}",
            seed=instance_seed,
            seed_strategy="shared",
            num_switches=num_switches,
            ports=ports_per_switch,
            network_degree=network_degree,
            servers_per_switch=servers_per_switch,
            method=method,
            instance=index,
        )
        for index, instance_seed in enumerate(spawn_seeds(seed, num_instances))
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
    """Link failure throughput of one instance (scenario target).

    Builds an equipment-constrained Jellyfish, removes ``fraction`` of its
    links -- the draw :func:`~repro.failures.injection.fail_random_links`
    makes -- and evaluates normalized permutation throughput, counting
    disconnected demand pairs as zero like Fig 8 does.  The instance is this
    point's own, so it is failed in place: a copy would reorder adjacency
    (as ``nx.Graph.copy`` does) and move routing tie-breaks.
    """
    del instance
    from repro.failures.injection import sample_failures
    from repro.flow.throughput import degraded_throughput

    rng = ensure_rng(seed)
    topology = JellyfishTopology.from_equipment(
        num_switches, ports, num_servers, rng=rng
    )
    failed_links = sample_failures(topology.graph.edges, fraction, rng)
    topology.remove_links(failed_links)
    return {
        "throughput": degraded_throughput(topology, k=k, rng=rng).normalized,
        "connected": bool(topology.is_connected()),
        "failed_links": len(failed_links),
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
