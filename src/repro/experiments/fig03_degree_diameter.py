"""Fig 3: Jellyfish vs best-known degree-diameter graphs.

The paper attaches servers to both graphs (same switch count, port count and
network degree) and measures normalized random-permutation throughput under
optimal routing, finding Jellyfish within ~91% of the carefully optimized
benchmark in the worst case.  The benchmark graphs here are exact classical
constructions where available and local-search-optimized graphs otherwise
(DESIGN.md, substitution 4).
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.flow.throughput import mean_normalized_throughput
from repro.topologies.degree_diameter import DegreeDiameterTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import ensure_rng

# (num_switches, ports_per_switch, network_degree) as labelled on the paper's x-axis.
_SCALES = {
    "small": {"configs": [(50, 11, 7), (72, 7, 5)], "trials": 2, "iterations": 300},
    "paper": {
        "configs": [
            (132, 4, 3),
            (72, 7, 5),
            (98, 6, 4),
            (50, 11, 7),
            (111, 8, 6),
            (212, 7, 5),
            (168, 10, 7),
            (104, 16, 11),
            (198, 24, 16),
        ],
        "trials": 5,
        "iterations": 2000,
    },
}

_TARGET = "repro.experiments.fig03_degree_diameter:compute_rows"


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)
    trials = config["trials"]

    rows = []
    for num_switches, ports, degree in config["configs"]:
        benchmark = DegreeDiameterTopology.build(
            num_switches,
            ports,
            degree,
            rng=rng,
            iterations=config["iterations"],
        )
        jellyfish = JellyfishTopology.build(
            num_switches, ports, degree, rng=rng
        )
        bench_throughput = mean_normalized_throughput(benchmark, trials, rng=rng)
        jelly_throughput = mean_normalized_throughput(jellyfish, trials, rng=rng)
        ratio = jelly_throughput / bench_throughput if bench_throughput else 0.0
        rows.append(
            [
                f"({num_switches}, {ports}, {degree})",
                bench_throughput,
                jelly_throughput,
                ratio,
            ]
        )
    return rows


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig03", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig03",
        title="Normalized throughput: best-known degree-diameter graph vs Jellyfish",
        columns=[
            "config (switches, ports, degree)",
            "degree_diameter_throughput",
            "jellyfish_throughput",
            "jellyfish_fraction_of_benchmark",
        ],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
