"""Fig 1(c): path-length distribution, Jellyfish vs same-equipment fat-tree.

The paper plots the fraction of server pairs reachable within each hop count
for a 686-server Jellyfish and the same-equipment fat-tree (k = 14).  The
headline observation: >99.5% of Jellyfish server pairs are within fewer than
6 hops versus only 7.5% for the fat-tree.

The whole comparison is one scenario point (both CDFs share one rng stream),
declared through the scenario engine so ``repro sweep run fig01`` caches and
re-serves it by content hash.  The CDFs themselves ride the memoized
all-pairs BFS in :mod:`repro.graphs.properties`.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.topologies.fattree import FatTreeTopology, fattree_equipment
from repro.topologies.jellyfish import JellyfishTopology
from repro.utils.rng import ensure_rng

_SCALES = {"small": 8, "paper": 14}

_TARGET = "repro.experiments.fig01_path_length:compute_cdfs"


def compute_cdfs(k: int, seed: int = 0) -> dict:
    """Scenario target: server path-length CDFs for both topologies.

    CDFs are returned as ``[hop, fraction]`` pair lists so the value is
    JSON-stable (cache round-trips bit-identically).
    """
    rng = ensure_rng(seed)
    fattree = FatTreeTopology.build(k)
    jellyfish = JellyfishTopology.from_equipment(*fattree_equipment(k), rng=rng)
    return {
        "k": k,
        "num_servers": fattree.num_servers,
        "fattree": sorted(fattree.server_path_length_cdf().items()),
        "jellyfish": sorted(jellyfish.server_path_length_cdf().items()),
    }


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig01", seed=seed, k=_SCALES[scale])]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    value = values[0]
    fat_cdf = {int(hop): fraction for hop, fraction in value["fattree"]}
    jelly_cdf = {int(hop): fraction for hop, fraction in value["jellyfish"]}
    hops = sorted(set(fat_cdf) | set(jelly_cdf))

    result = ExperimentResult(
        experiment_id="fig01",
        title=(
            f"Path length CDF between servers: Jellyfish vs fat-tree "
            f"(k={value['k']}, {value['num_servers']} servers each)"
        ),
        columns=["path_length", "jellyfish_fraction", "fattree_fraction"],
        notes="cumulative fraction of server pairs reachable within the hop count",
    )

    def cumulative(cdf, hop):
        best = 0.0
        for length, fraction in cdf.items():
            if length <= hop:
                best = max(best, fraction)
        return best

    for hop in hops:
        result.add_row(hop, cumulative(jelly_cdf, hop), cumulative(fat_cdf, hop))
    return result

