"""Fig 6: incrementally built Jellyfish matches Jellyfish built from scratch.

The paper grows a network from 20 to 160 switches in increments of 20
(12-port switches, 4 servers each) and compares normalized per-server
throughput of the incrementally grown topologies against topologies built
from scratch at each size; the curves coincide.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.flow.throughput import mean_normalized_throughput
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import ensure_rng

_SCALES = {
    "small": {"increment": 10, "stages": 3, "trials": 2},
    "paper": {"increment": 20, "stages": 8, "trials": 20},
}

_PORTS = 12
_SERVERS_PER_SWITCH = 4
_NETWORK_DEGREE = _PORTS - _SERVERS_PER_SWITCH

_TARGET = "repro.experiments.fig06_incremental:compute_rows"


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)
    increment = config["increment"]
    stages = config["stages"]
    trials = config["trials"]

    grown = JellyfishTopology.build(
        increment, _PORTS, _NETWORK_DEGREE,
        rng=rng, servers_per_switch=_SERVERS_PER_SWITCH,
    )
    rows = []
    for stage in range(1, stages + 1):
        count = increment * stage
        if stage > 1:
            grown.expand(
                increment, _PORTS, _SERVERS_PER_SWITCH, rng=rng, prefix=f"stage{stage}"
            )
        scratch = JellyfishTopology.build(
            count, _PORTS, _NETWORK_DEGREE,
            rng=rng, servers_per_switch=_SERVERS_PER_SWITCH,
        )
        rows.append(
            [
                count,
                count * _SERVERS_PER_SWITCH,
                mean_normalized_throughput(grown, trials, rng=rng),
                mean_normalized_throughput(scratch, trials, rng=rng),
            ]
        )
    return rows


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig06", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig06",
        title="Incrementally grown vs from-scratch Jellyfish throughput",
        columns=[
            "num_switches",
            "num_servers",
            "incremental_throughput",
            "from_scratch_throughput",
        ],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
