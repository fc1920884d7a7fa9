"""Fig 9: ECMP does not provide enough path diversity on Jellyfish.

For a random-permutation workload on a Jellyfish built from fat-tree
equipment, count for every directed inter-switch link how many distinct
paths use it under 8-way ECMP, 64-way ECMP and 8-shortest-path routing.
The paper's headline: ~55% of links carry at most 2 paths under 8-way ECMP,
versus ~6% under 8-shortest-path routing.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.routing.diversity import fraction_links_at_or_below, link_path_counts
from repro.routing.paths import build_path_set
from repro.topologies.fattree import fattree_equipment
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic
from repro.utils.rng import ensure_rng

_SCALES = {"small": 6, "paper": 14}

_SCHEMES = [
    ("8-way ECMP", "ecmp", 8),
    ("64-way ECMP", "ecmp", 64),
    ("8 shortest paths", "ksp", 8),
]

_TARGET = "repro.experiments.fig09_ecmp_diversity:compute_rows"


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    k = _SCALES[scale]
    rng = ensure_rng(seed)

    jellyfish = JellyfishTopology.from_equipment(*fattree_equipment(k), rng=rng)
    traffic = random_permutation_traffic(jellyfish, rng=rng)
    pairs = list(traffic.switch_pairs())
    total_directed_links = 2 * jellyfish.num_links

    rows = []
    for label, scheme, width in _SCHEMES:
        path_set = build_path_set(jellyfish.graph, pairs, scheme=scheme, k=width)
        all_paths = [path for options in path_set.paths.values() for path in options]
        counts = link_path_counts(all_paths)
        fraction = fraction_links_at_or_below(counts, 2, total_directed_links)
        mean_paths = sum(counts.values()) / total_directed_links
        rows.append([label, fraction, mean_paths, max(counts.values()) if counts else 0])
    return rows


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig09", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig09",
        title="Distinct paths per inter-switch link under ECMP vs k-shortest-path routing",
        columns=[
            "routing",
            "fraction_links_on_at_most_2_paths",
            "mean_paths_per_link",
            "max_paths_on_a_link",
        ],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
