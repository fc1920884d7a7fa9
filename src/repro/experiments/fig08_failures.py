"""Fig 8: failure resilience -- throughput vs fraction of randomly failed links.

The paper fails a random fraction of inter-switch links in a Jellyfish
hosting ~26% more servers than the same-equipment fat-tree and shows that
per-server throughput degrades gracefully (failing 15% of links loses <16%
of capacity), degrading more slowly than the fat-tree.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.failures.injection import throughput_under_link_failures
from repro.topologies.fattree import FatTreeTopology, fattree_num_servers
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import ensure_rng

_SCALES = {
    "small": {"k": 6, "jellyfish_server_factor": 1.15, "fractions": [0.0, 0.1, 0.2]},
    "paper": {
        "k": 12,
        "jellyfish_server_factor": 1.26,
        "fractions": [0.0, 0.05, 0.10, 0.15, 0.20, 0.25],
    },
}

_TARGET = "repro.experiments.fig08_failures:compute_rows"


def _jellyfish_servers(config) -> int:
    return int(round(fattree_num_servers(config["k"]) * config["jellyfish_server_factor"]))


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)
    k = config["k"]

    fattree = FatTreeTopology.build(k)
    jellyfish = JellyfishTopology.from_equipment(
        num_switches=fattree.num_switches,
        ports_per_switch=k,
        num_servers=_jellyfish_servers(config),
        rng=rng,
    )

    jelly_series = throughput_under_link_failures(
        jellyfish, config["fractions"], engine="path", k=8, rng=rng
    )
    fat_series = throughput_under_link_failures(
        fattree, config["fractions"], engine="path", k=8, rng=rng
    )
    return [
        [fraction, jelly_value, fat_value]
        for (fraction, jelly_value), (_, fat_value) in zip(jelly_series, fat_series)
    ]


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig08", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    result = ExperimentResult(
        experiment_id="fig08",
        title=(
            f"Throughput under random link failures: Jellyfish "
            f"({_jellyfish_servers(config)} servers) vs fat-tree "
            f"({fattree_num_servers(config['k'])} servers), same equipment"
        ),
        columns=[
            "fraction_links_failed",
            "jellyfish_throughput",
            "fattree_throughput",
        ],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
