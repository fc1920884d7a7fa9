"""fig02a-scale: sampled bisection and throughput bounds at hyperscale.

Fig 2(a) plots the analytic Bollobás bisection lower bound; its ensemble
variant measures Kernighan--Lin cuts on concrete instances, which is
hopeless beyond a few thousand switches.  This sweep keeps the figure's
question honest at 10k-100k switches with estimators that stay O(E) per
trial:

* :func:`~repro.graphs.sampling.sampled_bisection_stats` -- random
  balanced partitions give an *upper* bound on the bisection width, with
  a CI around the mean cut and the analytic expected cut for calibration;
* the Bollobás *lower* bound brackets the truth from below, so the row
  reports a certified [lower, upper] interval per size;
* :func:`~repro.graphs.sampling.sampled_throughput_bound` converts the
  sampled mean path length into the link-capacity throughput ceiling of
  Jyothi et al. (``links / (flows * mean_path)``), per server.

Cuts are normalized by one partition's server bandwidth (``servers / 2``),
the same normalization the fig02a family uses.

Both estimators honor the active execution profile (degradation ladder,
:mod:`repro.resources`): a resource-exhausted point re-runs with fewer
sources/trials one rung down, and the echoed ``trials``/``num_sources``
in each row record what actually ran.
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.graphs.bisection import bollobas_bisection_lower_bound
from repro.graphs.sampling import (
    sampled_bisection_stats,
    sampled_path_length_stats,
    sampled_throughput_bound,
)
from repro.topologies.ensemble import single_rrg_core

_SCALES = {
    "small": {
        "ports": 8,
        "network_degree": 6,
        "switch_counts": [40, 80],
        "trials": 8,
        "num_sources": 16,
    },
    "paper": {
        "ports": 48,
        "network_degree": 36,
        "switch_counts": [1000, 10000],
        "trials": 9,
        "num_sources": 64,
    },
    "hyperscale": {
        "ports": 48,
        "network_degree": 36,
        "switch_counts": [10000, 50000, 100000],
        "trials": 9,
        "num_sources": 64,
    },
}

_TARGET = "repro.experiments.fig02a_scale:compute_scale_bisection_point"


def compute_scale_bisection_point(
    num_switches: int,
    ports: int,
    network_degree: int,
    trials: int,
    num_sources: int,
    seed: int = 0,
) -> dict:
    """Scenario target: sampled cut + throughput bounds for one RRG size."""
    core = single_rrg_core(num_switches, ports, network_degree, seed=seed)
    csr = core.csr()
    servers = num_switches * (ports - network_degree)
    half_bandwidth = servers / 2.0 if servers else 1.0

    cuts = sampled_bisection_stats(csr, trials=trials, seed=seed)
    paths = sampled_path_length_stats(csr, num_sources=num_sources, seed=seed)
    throughput, thr_low, thr_high = sampled_throughput_bound(csr, servers, paths)
    return {
        "num_switches": num_switches,
        "num_servers": servers,
        "network_degree": network_degree,
        "trials": cuts.trials,
        "bollobas_normalized": (
            bollobas_bisection_lower_bound(num_switches, network_degree)
            / half_bandwidth
        ),
        "min_cut_normalized": cuts.min_cut / half_bandwidth,
        "mean_cut_normalized": cuts.mean_cut / half_bandwidth,
        "cut_ci_low": cuts.ci_low / half_bandwidth,
        "cut_ci_high": cuts.ci_high / half_bandwidth,
        "expected_cut_normalized": cuts.expected_cut / half_bandwidth,
        "throughput_bound": throughput,
        "throughput_ci_low": thr_low,
        "throughput_ci_high": thr_high,
        "mean_path_length": paths.mean,
    }


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    config = _SCALES[scale]
    return [
        ScenarioSpec.grid(
            _TARGET,
            name=f"fig02a-scale-{count}",
            seed=seed,
            seed_strategy="derived",
            num_switches=count,
            ports=config["ports"],
            network_degree=config["network_degree"],
            trials=config["trials"],
            num_sources=config["num_sources"],
        )
        for count in config["switch_counts"]
    ]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    config = _SCALES[scale]
    result = ExperimentResult(
        experiment_id="fig02a-scale",
        title=(
            f"Sampled bisection and throughput bounds vs size "
            f"(k={config['ports']}, r={config['network_degree']}, "
            f"{config['trials']} random balanced cuts)"
        ),
        columns=[
            "num_switches",
            "num_servers",
            "bollobas_lower",
            "min_cut_upper",
            "mean_cut",
            "cut_ci_low",
            "cut_ci_high",
            "expected_cut",
            "throughput_bound",
        ],
        notes="cuts normalized by servers/2; bollobas_lower <= true bisection "
        "<= min_cut_upper; throughput_bound = per-server ceiling from the "
        "sampled mean path length",
    )
    for value in values:
        result.add_row(
            value["num_switches"],
            value["num_servers"],
            value["bollobas_normalized"],
            value["min_cut_normalized"],
            value["mean_cut_normalized"],
            value["cut_ci_low"],
            value["cut_ci_high"],
            value["expected_cut_normalized"],
            value["throughput_bound"],
        )
    return result

