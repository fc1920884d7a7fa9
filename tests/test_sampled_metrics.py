"""Statistical contract of the sampled-pair estimators (repro.graphs.sampling).

The hyperscale mode replaces exact all-pairs kernels with seeded estimators;
these tests pin the properties that make that replacement honest:

* determinism: the estimate is a pure function of (graph, seed);
* exactness: sampling every source reproduces the exact kernels
  bit-for-bit (mean, diameter, histogram);
* consistency: confidence intervals shrink with sample size and cover the
  exact value at the advertised rate (checked over a fixed seed panel, so
  the test itself is deterministic);
* calibration: the random balanced-cut mean concentrates on the
  closed-form expectation, and the min cut upper-bounds the true width
  where the exact value is computable.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.csr import csr_graph
from repro.graphs.properties import (
    average_path_length,
    diameter,
    histogram_cdf,
    path_length_distribution,
)
from repro.graphs.regular import random_regular_graph
from repro.graphs.sampling import (
    expected_balanced_cut,
    sampled_bisection_stats,
    sampled_path_length_stats,
    sampled_throughput_bound,
    throughput_upper_bound,
)
from repro.topologies.ensemble import single_rrg_core

COMMON_SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def regular_csr_graphs(draw):
    """Connected-ish random regular graphs as CSR views."""
    num_nodes = draw(st.integers(min_value=8, max_value=60))
    degree = draw(st.integers(min_value=3, max_value=min(6, num_nodes - 1)))
    if (num_nodes * degree) % 2 != 0:
        degree -= 1
    seed = draw(st.integers(min_value=0, max_value=2**16))
    graph = random_regular_graph(num_nodes, degree, rng=seed)
    return csr_graph(graph)


# --------------------------------------------------------------------------- #
# Path-length estimator
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(regular_csr_graphs(), st.integers(min_value=0, max_value=2**16))
def test_sampled_paths_seed_deterministic(csr, seed):
    first = sampled_path_length_stats(csr, num_sources=5, seed=seed)
    second = sampled_path_length_stats(csr, num_sources=5, seed=seed)
    assert first == second
    assert not first.exact
    assert first.ci_low <= first.mean <= first.ci_high


@COMMON_SETTINGS
@given(regular_csr_graphs())
def test_full_coverage_matches_exact_kernels(csr):
    stats = sampled_path_length_stats(csr)
    assert stats.exact
    assert stats.num_sources == csr.num_nodes
    assert stats.mean == average_path_length(csr)
    assert stats.diameter_lower_bound == diameter(csr)
    assert stats.ci_low == stats.mean == stats.ci_high
    # The ordered-pair histogram is exactly 2x the unordered distribution.
    unordered = path_length_distribution(csr)
    assert stats.histogram == {hops: 2 * count for hops, count in unordered.items()}


def test_num_sources_at_or_above_n_is_exact():
    core = single_rrg_core(40, 8, 5, seed=1)
    csr = core.csr()
    exact = sampled_path_length_stats(csr)
    assert sampled_path_length_stats(csr, num_sources=40) == exact
    assert sampled_path_length_stats(csr, num_sources=500) == exact


def test_ci_width_shrinks_with_sample_size():
    core = single_rrg_core(300, 12, 9, seed=7)
    csr = core.csr()
    seeds = range(12)

    def halfwidths(num_sources):
        stats = [sampled_path_length_stats(csr, num_sources=num_sources, seed=s) for s in seeds]
        return [(each.ci_high - each.ci_low) / 2.0 for each in stats]

    narrow = halfwidths(96)
    wide = halfwidths(12)
    assert all(width > 0 for width in narrow)
    assert float(np.mean(narrow)) < float(np.mean(wide))


def test_ci_covers_exact_value_at_advertised_rate():
    core = single_rrg_core(200, 12, 9, seed=3)
    csr = core.csr()
    exact = sampled_path_length_stats(csr).mean
    covered = 0
    seeds = range(30)
    for s in seeds:
        stats = sampled_path_length_stats(csr, num_sources=32, seed=s)
        if stats.ci_low <= exact <= stats.ci_high:
            covered += 1
    # 95% nominal; demand >= 80% so the fixed panel never flakes.
    assert covered >= 0.8 * len(seeds)


def test_sampled_mean_streams_identically_under_tiny_scratch():
    core = single_rrg_core(120, 12, 9, seed=2)
    csr = core.csr()
    default = sampled_path_length_stats(csr, num_sources=24, seed=0)
    streamed = sampled_path_length_stats(
        csr, num_sources=24, seed=0, scratch_bytes=1
    )
    assert default == streamed


def test_path_stats_input_validation():
    core = single_rrg_core(20, 8, 5, seed=0)
    csr = core.csr()
    with pytest.raises(ValueError):
        sampled_path_length_stats(csr, num_sources=0)
    with pytest.raises(ValueError):
        sampled_path_length_stats(csr, confidence=1.5)


def test_cdf_is_monotone_and_ends_at_one():
    core = single_rrg_core(60, 8, 5, seed=4)
    stats = sampled_path_length_stats(core.csr(), num_sources=10, seed=4)
    cdf = histogram_cdf(stats.histogram)
    values = [cdf[h] for h in sorted(cdf)]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# Balanced-cut estimator
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(regular_csr_graphs(), st.integers(min_value=0, max_value=2**16))
def test_sampled_bisection_seed_deterministic(csr, seed):
    first = sampled_bisection_stats(csr, trials=5, seed=seed)
    second = sampled_bisection_stats(csr, trials=5, seed=seed)
    assert first == second
    assert 0 <= first.min_cut <= first.mean_cut
    assert first.mean_cut <= csr.num_edges


def test_bisection_ci_covers_expected_cut():
    core = single_rrg_core(200, 12, 9, seed=9)
    csr = core.csr()
    expected = expected_balanced_cut(csr.num_nodes, csr.num_edges)
    covered = 0
    seeds = range(30)
    for s in seeds:
        stats = sampled_bisection_stats(csr, trials=16, seed=s)
        assert stats.expected_cut == expected
        if stats.ci_low <= expected <= stats.ci_high:
            covered += 1
    assert covered >= 0.8 * len(seeds)


def test_bisection_handles_edgeless_graph():
    import networkx as nx

    csr = csr_graph(nx.empty_graph(5))
    stats = sampled_bisection_stats(csr, trials=3, seed=0)
    assert stats.mean_cut == 0.0
    assert stats.min_cut == 0
    assert stats.expected_cut == 0.0


def test_bisection_input_validation():
    core = single_rrg_core(20, 8, 5, seed=0)
    with pytest.raises(ValueError):
        sampled_bisection_stats(core.csr(), trials=0)


# --------------------------------------------------------------------------- #
# Throughput bound
# --------------------------------------------------------------------------- #
def test_throughput_bound_closed_form():
    assert throughput_upper_bound(100, 50, 2.0) == pytest.approx(1.0)
    assert throughput_upper_bound(100, 50, 4.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        throughput_upper_bound(100, 0, 2.0)
    with pytest.raises(ValueError):
        throughput_upper_bound(100, 50, 0.0)


def test_sampled_throughput_interval_orients_correctly():
    core = single_rrg_core(100, 12, 9, seed=5)
    csr = core.csr()
    stats = sampled_path_length_stats(csr, num_sources=20, seed=5)
    bound, low, high = sampled_throughput_bound(csr, 300, stats)
    # Anti-monotone map: longer paths -> lower bound, so endpoints swap.
    assert low <= bound <= high
    assert bound == pytest.approx(
        throughput_upper_bound(csr.num_edges, 300, stats.mean)
    )
