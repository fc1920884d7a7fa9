"""Fig 12 dynamics variant: AIMD convergence across runs, Jellyfish vs fat-tree.

Fig 12 shows the *steady-state* throughput envelope (min/mean/max over
independently drawn topologies and traffic) computed by the fluid model.
This sweep cross-validates that stability story with the round-based AIMD
engine: each point runs the dynamic simulator on a fresh topology + traffic
draw and reports, alongside the same throughput envelope, how many rounds
the coupled AIMD controller needs before the per-connection goodput settles
(:func:`repro.simulation.aimd.measure_convergence_round`).  Every
(size, topology, instance) cell is its own scenario point, so the grid
shards across workers and caches per instance; path routing within one
topology is served by the shared path table.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.simulation.aimd import AimdConfig, simulate_aimd
from repro.simulation.fluid import MPTCP
from repro.topologies.fattree import FatTreeTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic
from repro.utils.rng import ensure_rng
from repro.utils.stats import mean

#: ``packets_per_round`` sets the model's time constant (windows grow by
#: about one packet per round, so equilibrium arrives after O(packets)
#: rounds); 20 keeps convergence comfortably inside the simulated horizon.
#: The convergence window/tolerance smooth over the MPTCP halving sawtooth.
_SCALES = {
    "small": {
        "port_counts": [4, 6],
        "runs": 3,
        "rounds": 150,
        "warmup_rounds": 30,
        "packets_per_round": 20,
        "jellyfish_server_factor": 1.1,
    },
    "paper": {
        "port_counts": [8, 10, 12, 14],
        "runs": 10,
        "rounds": 400,
        "warmup_rounds": 60,
        "packets_per_round": 20,
        "jellyfish_server_factor": 1.25,
    },
}

_TARGET = "repro.experiments.fig12_dynamics:aimd_dynamics_point"


def dynamics_topology_case(topology: str, ports: int, server_factor: float, rng):
    """The dynamics experiments' shared topology setup.

    ``"fat-tree"`` pairs the k-port fat-tree with ECMP routing;
    ``"jellyfish"`` pairs the equipment-matched random graph (hosting
    ``server_factor`` times the fat-tree's servers) with k-shortest-path
    routing.  Returns ``(topology, routing)``; shared by fig12-dynamics and
    fig13-dynamics so the equipment-matching convention cannot diverge.
    """
    fattree = FatTreeTopology.build(ports)
    if topology == "fat-tree":
        return fattree, "ecmp"
    if topology == "jellyfish":
        built = JellyfishTopology.from_equipment(
            num_switches=fattree.num_switches,
            ports_per_switch=ports,
            num_servers=int(round(fattree.num_servers * server_factor)),
            rng=rng,
        )
        return built, "ksp"
    raise ValueError(f"unknown topology {topology!r}")


def aimd_dynamics_point(
    topology: str,
    ports: int,
    server_factor: float,
    rounds: int,
    warmup_rounds: int,
    packets_per_round: int = 20,
    convergence_tolerance: float = 0.1,
    convergence_window: int = 16,
    instance: int = 0,
    seed: Optional[int] = None,
) -> dict:
    """One AIMD run on a fresh topology + traffic draw (scenario target).

    ``topology`` is ``"fat-tree"`` (ECMP routing over the k-port fat-tree)
    or ``"jellyfish"`` (k-shortest-path routing over the equipment-matched
    random graph, hosting ``server_factor`` times the fat-tree's servers);
    both run MPTCP with 8 subflows, the paper's strongest configuration.
    ``instance`` only differentiates scenario points (the seed is derived
    from it by the spec machinery).
    """
    rng = ensure_rng(seed)
    built, routing = dynamics_topology_case(topology, ports, server_factor, rng)
    config = AimdConfig(
        routing=routing,
        k=8,
        congestion_control=MPTCP,
        rounds=rounds,
        warmup_rounds=warmup_rounds,
        packets_per_round=packets_per_round,
        convergence_tolerance=convergence_tolerance,
        convergence_window=convergence_window,
    )
    traffic = random_permutation_traffic(built, rng=rng)
    outcome = simulate_aimd(built, traffic, config, rng=rng)
    return {
        "num_servers": built.num_servers,
        "num_connections": len(outcome.flow_throughputs),
        "average_throughput": outcome.average_throughput,
        "fairness": outcome.fairness,
        "convergence_round": outcome.convergence_round,
    }


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    config = _SCALES[scale]
    return [
        ScenarioSpec.grid(
            _TARGET,
            name=f"fig12-dynamics-{ports}",
            seed=seed,
            seed_strategy="derived",
            ports=ports,
            server_factor=config["jellyfish_server_factor"],
            rounds=config["rounds"],
            warmup_rounds=config["warmup_rounds"],
            packets_per_round=config["packets_per_round"],
            topology=["fat-tree", "jellyfish"],
            instance=list(range(config["runs"])),
        )
        for ports in config["port_counts"]
    ]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    runs = config["runs"]
    result = ExperimentResult(
        experiment_id="fig12-dynamics",
        title=(
            "AIMD convergence and throughput stability across runs "
            f"({config['rounds']} rounds, warm-up {config['warmup_rounds']})"
        ),
        columns=[
            "topology",
            "num_servers",
            "min",
            "mean",
            "max",
            "converged_fraction",
            "convergence_round_mean",
        ],
        notes="round-based AIMD engine (MPTCP, 8 subflows); convergence is "
        "the first measured round where smoothed per-connection goodput "
        "settles; compare the envelope against fig12's fluid model",
    )
    iterator = iter(values)
    for _ports in config["port_counts"]:
        for topology in ("fat-tree", "jellyfish"):
            points = [next(iterator) for _ in range(runs)]
            throughputs = [point["average_throughput"] for point in points]
            converged = [
                point["convergence_round"]
                for point in points
                if point["convergence_round"] is not None
            ]
            result.add_row(
                topology,
                points[0]["num_servers"],
                min(throughputs),
                mean(throughputs),
                max(throughputs),
                len(converged) / len(points),
                mean(converged) if converged else float("nan"),
            )
    return result

