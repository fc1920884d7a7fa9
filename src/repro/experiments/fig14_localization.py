"""Fig 14: two-layer (localized) Jellyfish for container data centers.

Restricting a fraction of every switch's random links to stay inside its own
container shortens most cables; the paper shows throughput (normalized to an
unrestricted Jellyfish of identical equipment) degrades by <6% when 60% of
links are localized, which already exceeds the fat-tree's in-pod fraction of
0.5 * (1 + 1/k).
"""

from __future__ import annotations

from typing import Any, List

from repro.cabling.containers import build_localized_jellyfish, local_link_fraction
from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.flow.throughput import mean_normalized_throughput
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import ensure_rng

_SCALES = {
    "small": {
        "sizes": [(4, 8)],          # (containers, switches per container)
        "fractions": [0.0, 0.3, 0.6, 0.9],
        "trials": 2,
    },
    "paper": {
        "sizes": [(4, 10), (5, 15), (6, 20), (7, 28)],
        "fractions": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "trials": 5,
    },
}

_PORTS = 10
_NETWORK_DEGREE = 6
_SERVERS_PER_SWITCH = 4  # oversubscribed so localization effects are visible

_TARGET = "repro.experiments.fig14_localization:compute_rows"


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)
    trials = config["trials"]

    rows = []
    for containers, per_container in config["sizes"]:
        num_switches = containers * per_container
        unrestricted = JellyfishTopology.build(
            num_switches,
            _PORTS,
            _NETWORK_DEGREE,
            rng=rng,
            servers_per_switch=_SERVERS_PER_SWITCH,
        )
        baseline = mean_normalized_throughput(unrestricted, trials, rng=rng)
        for fraction in config["fractions"]:
            localized = build_localized_jellyfish(
                num_containers=containers,
                switches_per_container=per_container,
                ports_per_switch=_PORTS,
                network_degree=_NETWORK_DEGREE,
                servers_per_switch=_SERVERS_PER_SWITCH,
                local_fraction=fraction,
                rng=rng,
            )
            value = mean_normalized_throughput(localized, trials, rng=rng)
            normalized = value / baseline if baseline else 0.0
            rows.append(
                [
                    localized.num_servers,
                    fraction,
                    local_link_fraction(localized),
                    normalized,
                ]
            )
    return rows


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig14", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig14",
        title="Localized (two-layer) Jellyfish throughput vs fraction of in-container links",
        columns=[
            "num_servers",
            "requested_local_fraction",
            "achieved_local_fraction",
            "throughput_normalized_to_unrestricted",
        ],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
