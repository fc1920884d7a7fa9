"""Fig 13 dynamics variant: AIMD fairness against the fluid allocation.

Fig 13 reports Jain's fairness index of the *fluid* (steady-state max-min)
allocation under k-shortest-path routing + MPTCP.  This sweep runs the
round-based AIMD engine on the **same topology and traffic matrix** and
compares the fairness and average throughput the dynamic controller
actually reaches against the fluid equilibrium it is supposed to converge
to -- the repo's stand-in for the paper's packet-simulator cross-check.
Each (topology, instance) cell is an independent scenario point; within a
point the two simulators share the topology's path table via the shared
path-set cache.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.experiments.fig12_dynamics import dynamics_topology_case
from repro.simulation.aimd import AimdConfig, simulate_aimd
from repro.simulation.fluid import MPTCP, SimulationConfig, simulate_fluid
from repro.traffic.matrices import random_permutation_traffic
from repro.utils.rng import ensure_rng
from repro.utils.stats import mean

#: ``packets_per_round`` = 20 keeps the AIMD time constant well inside the
#: simulated horizon (see fig12_dynamics); warm-up discards the initial
#: window growth so the measured average reflects the settled allocation.
_SCALES = {
    "small": {
        "ports": 6,
        "runs": 2,
        "rounds": 150,
        "warmup_rounds": 30,
        "packets_per_round": 20,
        "jellyfish_server_factor": 1.13,
    },
    "paper": {
        "ports": 14,
        "runs": 3,
        "rounds": 400,
        "warmup_rounds": 60,
        "packets_per_round": 20,
        "jellyfish_server_factor": 1.137,
    },
}

_TARGET = "repro.experiments.fig13_dynamics:aimd_vs_fluid_point"


def aimd_vs_fluid_point(
    topology: str,
    ports: int,
    server_factor: float,
    rounds: int,
    warmup_rounds: int,
    packets_per_round: int = 20,
    instance: int = 0,
    seed: Optional[int] = None,
) -> dict:
    """Fluid vs AIMD on one topology + traffic draw (scenario target)."""
    rng = ensure_rng(seed)
    built, routing = dynamics_topology_case(topology, ports, server_factor, rng)
    traffic = random_permutation_traffic(built, rng=rng)
    fluid = simulate_fluid(
        built,
        traffic,
        SimulationConfig(routing=routing, k=8, congestion_control=MPTCP),
        rng=rng,
    )
    aimd = simulate_aimd(
        built,
        traffic,
        AimdConfig(
            routing=routing,
            k=8,
            congestion_control=MPTCP,
            rounds=rounds,
            warmup_rounds=warmup_rounds,
            packets_per_round=packets_per_round,
            convergence_tolerance=0.1,
            convergence_window=16,
        ),
        rng=rng,
    )
    gaps = [
        abs(dynamic - steady)
        for dynamic, steady in zip(aimd.flow_throughputs, fluid.flow_throughputs)
    ]
    return {
        "num_flows": len(aimd.flow_throughputs),
        "aimd_fairness": aimd.fairness,
        "fluid_fairness": fluid.fairness,
        "aimd_throughput": aimd.average_throughput,
        "fluid_throughput": fluid.average_throughput,
        "mean_abs_gap": mean(gaps) if gaps else 0.0,
        "convergence_round": aimd.convergence_round,
    }


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    config = _SCALES[scale]
    return [
        ScenarioSpec.grid(
            _TARGET,
            name="fig13-dynamics",
            seed=seed,
            seed_strategy="derived",
            ports=config["ports"],
            server_factor=config["jellyfish_server_factor"],
            rounds=config["rounds"],
            warmup_rounds=config["warmup_rounds"],
            packets_per_round=config["packets_per_round"],
            topology=["fat-tree", "jellyfish"],
            instance=list(range(config["runs"])),
        )
    ]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    runs = config["runs"]
    result = ExperimentResult(
        experiment_id="fig13-dynamics",
        title=(
            "AIMD fairness vs the fluid allocation (ksp/ecmp + MPTCP, "
            f"{config['rounds']} rounds)"
        ),
        columns=[
            "topology",
            "num_flows",
            "aimd_fairness",
            "fluid_fairness",
            "aimd_throughput",
            "fluid_throughput",
            "mean_abs_gap",
        ],
        notes="each run compares both simulators on one topology + traffic "
        "draw; mean_abs_gap is the mean absolute per-flow throughput "
        "difference between the AIMD rounds and the fluid equilibrium",
    )
    iterator = iter(values)
    for topology in ("fat-tree", "jellyfish"):
        points = [next(iterator) for _ in range(runs)]
        result.add_row(
            topology,
            points[0]["num_flows"],
            mean(point["aimd_fairness"] for point in points),
            mean(point["fluid_fairness"] for point in points),
            mean(point["aimd_throughput"] for point in points),
            mean(point["fluid_throughput"] for point in points),
            mean(point["mean_abs_gap"] for point in points),
        )
    return result

