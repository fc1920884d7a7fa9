"""Sampled-pair estimators for hyperscale graph metrics.

The exact metric kernels in :mod:`repro.graphs.properties` are all-pairs:
they run one BFS per node and reduce the full ``N x N`` distance matrix.
That is the right tool up to a few thousand switches, but the paper's own
pitch — and ROADMAP item 1 — is warehouse scale, where ``N^2`` distances
(40 GB of rows at N=100k) are neither storable nor needed.  Deployed-scale
evaluations of random graphs (AWS's *RNG: Flat Datacenter Networks at
Scale*; Jyothi et al., *High Throughput Data Center Topology Design*)
estimate the same quantities from sampled pairs; this module does the same
on top of the streaming CSR kernels:

* :func:`sampled_path_length_stats` samples source nodes uniformly without
  replacement and streams their full BFS rows through
  :meth:`~repro.graphs.csr.CSRGraph.iter_hop_distance_blocks`, so memory
  stays bounded by the BFS scratch budget.  Because every source
  contributes its complete row, the per-source mean path length is an
  unbiased cluster sample of the pair mean, and the confidence interval
  comes from the between-source variance (with a finite-population
  correction).  Sampling all sources reproduces the exact kernels
  bit-for-bit — the parity the test suite pins.
* :func:`sampled_bisection_stats` evaluates random balanced partitions
  vectorized over the CSR edge arrays (O(E) per trial).  The minimum cut
  observed is an upper bound on the bisection width (the quantity
  Kernighan–Lin approaches at small N); the mean cut concentrates on the
  closed-form expectation ``E * N / (2 * (N - 1))``, which the recorded
  confidence interval is pinned against.
* :func:`throughput_upper_bound` is the capacity/path-length bound of
  Jyothi et al.: aggregate throughput cannot exceed total link capacity
  divided by (flows x mean path length).  Feeding it the sampled mean path
  length gives the scalable stand-in for the LP throughput harness.

Every estimator is a pure function of ``(graph structure, seed)``: the
sample is drawn from ``numpy.random.default_rng(seed)``, so results are
reproducible and cache cleanly through the scenario engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.resources import active_profile
from repro.telemetry import trace


def _z_score(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class SampledPathStats:
    """Path-length estimates from a source sample (see module docstring).

    ``mean`` estimates the mean shortest-path length over distinct
    reachable pairs; ``[ci_low, ci_high]`` is the ``confidence``-level
    normal interval from the between-source variance.  ``exact`` is True
    when every node was sampled, in which case ``mean`` equals
    :func:`repro.graphs.properties.average_path_length` bit-for-bit
    and the interval collapses to the point.  ``diameter_lower_bound`` is
    the largest distance observed (equal to the diameter when exact);
    ``histogram`` counts sampled *ordered* pairs per hop count.
    """

    num_nodes: int
    num_sources: int
    num_pairs: int
    exact: bool
    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    confidence: float
    diameter_lower_bound: int
    unreachable_pairs: int
    histogram: Dict[int, int]


def sampled_path_length_stats(
    csr: CSRGraph,
    num_sources: Optional[int] = None,
    seed: int = 0,
    confidence: float = 0.95,
    scratch_bytes: Optional[int] = None,
) -> SampledPathStats:
    """Estimate path-length statistics from a uniform source sample.

    ``num_sources`` of ``None`` (or anything >= the node count) runs every
    source — the exact regime.  Distance rows are streamed in scratch-budget
    blocks and reduced on the fly, so this never materializes more than one
    block of the distance matrix regardless of ``N``.

    The estimator targets connected graphs (every RRG this repo evaluates);
    on a disconnected graph each source averages over the pairs it can
    reach and ``unreachable_pairs`` counts what was skipped.

    The active execution profile (degradation ladder, see
    :mod:`repro.resources`) re-plans ``num_sources`` deterministically:
    deep rungs demote exact requests to a minority sample and shrink
    sampled requests, so a degraded re-dispatch genuinely costs less.  The
    returned ``num_sources`` records what actually ran.
    """
    n = csr.num_nodes
    if n < 2:
        raise ValueError("need at least two nodes to sample pairs")
    num_sources = active_profile().plan_sources(n, num_sources)
    z = _z_score(confidence)
    exact = num_sources is None or num_sources >= n
    if exact:
        sources = None
        m = n
    else:
        if num_sources < 1:
            raise ValueError("num_sources must be positive")
        m = int(num_sources)
        rng = np.random.default_rng(seed)
        sources = np.sort(rng.choice(n, size=m, replace=False))

    hist = np.zeros(1, dtype=np.int64)
    source_means = []
    max_hops = 0
    unreachable = 0
    with trace("sampling.path_stats", nodes=n, sources=m) as span:
        for _, block in csr.iter_hop_distance_blocks(sources, scratch_bytes):
            positive = block > 0
            sums = np.where(positive, block, 0).sum(axis=1, dtype=np.int64)
            counts = positive.sum(axis=1)
            unreachable += int((block < 0).sum())
            reached = counts > 0
            source_means.extend((sums[reached] / counts[reached]).tolist())
            flat = block[positive]
            if flat.size:
                block_hist = np.bincount(flat)
                if len(block_hist) > len(hist):
                    block_hist[: len(hist)] += hist
                    hist = block_hist
                else:
                    hist[: len(block_hist)] += block_hist
                max_hops = max(max_hops, len(block_hist) - 1)
        span.add(sampled_pairs=int(hist.sum()), unreachable_pairs=unreachable)

    num_pairs = int(hist.sum())
    if num_pairs == 0:
        raise ValueError("no sampled source reaches any other node")
    if exact:
        # Reduce from the integer histogram exactly like
        # average_path_length does (the ordered histogram is 2x the
        # unordered one, so the ratio is bit-identical).
        weighted = sum(hops * int(count) for hops, count in enumerate(hist.tolist()))
        mean = weighted / num_pairs
        std_error = 0.0
    else:
        means = np.asarray(source_means, dtype=np.float64)
        mean = float(means.mean())
        if len(means) > 1:
            # Cluster (between-source) variance with finite-population
            # correction: sampling all sources must shrink the interval to 0.
            variance = float(means.var(ddof=1))
            fpc = (n - len(means)) / (n - 1)
            std_error = float(np.sqrt(variance / len(means) * fpc))
        else:
            std_error = float("inf")
    halfwidth = z * std_error
    return SampledPathStats(
        num_nodes=n,
        num_sources=m,
        num_pairs=num_pairs,
        exact=exact,
        mean=float(mean),
        std_error=std_error,
        ci_low=float(mean - halfwidth),
        ci_high=float(mean + halfwidth),
        confidence=confidence,
        diameter_lower_bound=max_hops,
        unreachable_pairs=unreachable,
        histogram={
            hops: int(count)
            for hops, count in enumerate(hist.tolist())
            if count and hops > 0
        },
    )


@dataclass(frozen=True)
class SampledCutStats:
    """Random balanced-cut statistics (see :func:`sampled_bisection_stats`).

    ``min_cut`` is the smallest cut over the trials — an upper bound on the
    true bisection width.  ``mean_cut`` with ``[ci_low, ci_high]`` is the
    sample mean of the trial cuts; for a uniform balanced partition its
    expectation has the closed form ``expected_cut = E * ceil(N/2) *
    floor(N/2) / (N * (N-1) / 2) / ... `` reduced below, which the parity
    tests require the interval to cover.
    """

    num_nodes: int
    num_edges: int
    trials: int
    mean_cut: float
    std_error: float
    ci_low: float
    ci_high: float
    confidence: float
    min_cut: int
    expected_cut: float


def expected_balanced_cut(num_nodes: int, num_edges: int) -> float:
    """Expected edges cut by a uniformly random balanced partition.

    For a partition into halves of ``ceil(N/2)`` and ``floor(N/2)`` nodes,
    an edge's endpoints land on opposite sides with probability
    ``2 * ceil(N/2) * floor(N/2) / (N * (N-1))``; linearity of expectation
    gives the cut.  This is the exact value the sampled mean concentrates
    on, used to parity-pin :func:`sampled_bisection_stats` at small N.
    """
    if num_nodes < 2:
        return 0.0
    half_hi = (num_nodes + 1) // 2
    half_lo = num_nodes // 2
    probability = 2.0 * half_hi * half_lo / (num_nodes * (num_nodes - 1))
    return num_edges * probability


def sampled_bisection_stats(
    csr: CSRGraph,
    trials: int = 9,
    seed: int = 0,
    confidence: float = 0.95,
) -> SampledCutStats:
    """Cut statistics of ``trials`` random balanced partitions.

    Each trial draws a uniformly random balanced partition (via one
    permutation) and counts crossing edges with one vectorized comparison
    over the directed CSR edge arrays — O(E) per trial, no N x N anything —
    so it runs at 100k switches in seconds.  Replaces the Kernighan–Lin
    search (quadratic-ish per pass) in the hyperscale regime; at small N
    the two are cross-checked by the test suite.

    The active execution profile may deterministically shrink ``trials``
    (degradation-ladder rung 3 halves it, floor 1); the returned ``trials``
    records what actually ran.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    trials = active_profile().plan_trials(trials)
    n = csr.num_nodes
    if n < 2 or len(csr.indices) == 0:
        zero = 0.0
        return SampledCutStats(
            num_nodes=n,
            num_edges=csr.num_edges,
            trials=trials,
            mean_cut=zero,
            std_error=0.0,
            ci_low=zero,
            ci_high=zero,
            confidence=confidence,
            min_cut=0,
            expected_cut=0.0,
        )
    z = _z_score(confidence)
    rng = np.random.default_rng(seed)
    heads = csr.edge_sources()
    tails = csr.indices
    half = (n + 1) // 2
    cuts = np.empty(trials, dtype=np.int64)
    with trace("sampling.bisection", nodes=n, trials=trials):
        for trial in range(trials):
            side = np.zeros(n, dtype=bool)
            side[rng.permutation(n)[:half]] = True
            cuts[trial] = np.count_nonzero(side[heads] != side[tails]) // 2
    mean = float(cuts.mean())
    if trials > 1:
        std_error = float(cuts.std(ddof=1) / np.sqrt(trials))
    else:
        std_error = 0.0
    halfwidth = z * std_error
    return SampledCutStats(
        num_nodes=n,
        num_edges=csr.num_edges,
        trials=trials,
        mean_cut=mean,
        std_error=std_error,
        ci_low=mean - halfwidth,
        ci_high=mean + halfwidth,
        confidence=confidence,
        min_cut=int(cuts.min()),
        expected_cut=expected_balanced_cut(n, csr.num_edges),
    )


def throughput_upper_bound(
    num_links: int,
    num_flows: int,
    mean_path_length: float,
    capacity: float = 1.0,
) -> float:
    """Per-flow throughput upper bound from capacity over path length.

    Jyothi et al. (*High Throughput Data Center Topology Design*): total
    flow throughput is at most ``num_links * capacity / mean_path_length``
    because every unit of flow consumes ``mean_path_length`` units of link
    capacity on average; dividing by the flow count bounds the uniform
    per-flow rate.  Survives sampling: any mean-path-length estimate slots
    in, and the CI maps through monotonically (higher path length, lower
    bound).
    """
    if num_links < 0 or num_flows <= 0:
        raise ValueError("need non-negative links and positive flows")
    if mean_path_length <= 0:
        raise ValueError("mean_path_length must be positive")
    return num_links * capacity / (num_flows * mean_path_length)


def sampled_throughput_bound(
    csr: CSRGraph,
    num_flows: int,
    path_stats: SampledPathStats,
    capacity: float = 1.0,
) -> Tuple[float, float, float]:
    """``(bound, bound_low, bound_high)`` from sampled path statistics.

    The bound is anti-monotone in the mean path length, so the interval
    endpoints swap: the low bound comes from ``ci_high`` and vice versa.
    """
    bound = throughput_upper_bound(csr.num_edges, num_flows, path_stats.mean, capacity)
    high = throughput_upper_bound(
        csr.num_edges, num_flows, max(path_stats.ci_low, 1e-12), capacity
    )
    low = throughput_upper_bound(csr.num_edges, num_flows, path_stats.ci_high, capacity)
    return bound, low, high
