"""fig05-scale: path-length scaling at hyperscale via sampled-pair estimators.

The classic ``fig05`` sweep answers "does the mean path length stay flat as
the network grows?" with exact all-pairs BFS, which caps it at a few
thousand switches.  This variant re-asks the question at 10k-100k switches
(the EGS/Jupiter operating range the paper argues Jellyfish reaches with
cheaper equipment) using the memory-bounded machinery from
:mod:`repro.graphs.sampling`:

* topologies are built array-natively with the vectorized stub-matching
  constructor (no ``networkx`` graph, no Python adjacency dicts);
* path metrics come from :func:`~repro.graphs.sampling.sampled_path_length_stats`
  -- a seeded source sample streamed through the chunked BFS kernel under
  the scratch budget -- with a recorded confidence interval instead of a
  pretend-exact number.

Each switch count is its own scenario point (derived seed), so the sweep
shards across workers and caches per size like any per-point grid.
At the ``small`` scale the sample still covers a minority of sources, so
tests exercise the same estimator path the hyperscale runs use.

Under the resource governor (``--memory-mb`` plus the degradation ladder,
see :mod:`repro.resources`) a point that exhausts its budget re-runs one
fidelity rung down; because each point echoes the ``num_sources`` that
*actually* ran (``stats.num_sources``), degraded rows are visibly honest
in the assembled table.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.graphs.sampling import sampled_path_length_stats
from repro.topologies.ensemble import single_rrg_core

_SCALES = {
    "small": {
        "ports": 12,
        "network_degree": 9,
        "switch_counts": [60, 120, 240],
        "num_sources": 24,
    },
    "paper": {
        "ports": 48,
        "network_degree": 36,
        "switch_counts": [1000, 3200, 10000],
        "num_sources": 128,
    },
    "hyperscale": {
        "ports": 48,
        "network_degree": 36,
        "switch_counts": [10000, 50000, 100000],
        "num_sources": 256,
    },
}

_TARGET = "repro.experiments.fig05_scale:compute_scale_path_point"


def compute_scale_path_point(
    num_switches: int,
    ports: int,
    network_degree: int,
    num_sources: int,
    seed: int = 0,
) -> dict:
    """Scenario target: sampled path metrics for one RRG size.

    The construction and the source sample share ``seed`` but consume
    independent generators, so the estimate is reproducible per point.
    """
    core = single_rrg_core(num_switches, ports, network_degree, seed=seed)
    stats = sampled_path_length_stats(core.csr(), num_sources=num_sources, seed=seed)
    return {
        "num_switches": num_switches,
        "num_servers": num_switches * (ports - network_degree),
        "num_sources": stats.num_sources,
        "sampled_pairs": stats.num_pairs,
        "exact": stats.exact,
        "mean_path_length": stats.mean,
        "ci_low": stats.ci_low,
        "ci_high": stats.ci_high,
        "diameter_lower_bound": stats.diameter_lower_bound,
        "unreachable_pairs": stats.unreachable_pairs,
    }


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    config = _SCALES[scale]
    return [
        ScenarioSpec.grid(
            _TARGET,
            name=f"fig05-scale-{count}",
            seed=seed,
            seed_strategy="derived",
            num_switches=count,
            ports=config["ports"],
            network_degree=config["network_degree"],
            num_sources=config["num_sources"],
        )
        for count in config["switch_counts"]
    ]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    result = ExperimentResult(
        experiment_id="fig05-scale",
        title=(
            f"Sampled path length vs network size (k={config['ports']}, "
            f"r={config['network_degree']}, "
            f"{config['num_sources']}-source estimator)"
        ),
        columns=[
            "num_switches",
            "num_servers",
            "sources",
            "mean_path_length",
            "ci_low",
            "ci_high",
            "diameter_lb",
            "exact",
        ],
        notes="mean over sampled ordered switch pairs with a 95% CI; "
        "diameter_lb is the eccentricity max over sampled sources "
        "(a lower bound unless exact)",
    )
    for value in values:
        result.add_row(
            value["num_switches"],
            value["num_servers"],
            value["num_sources"],
            value["mean_path_length"],
            value["ci_low"],
            value["ci_high"],
            value["diameter_lower_bound"],
            value["exact"],
        )
    return result

