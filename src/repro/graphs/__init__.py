"""Graph-level building blocks: random regular graphs, metrics, bisection."""

from repro.graphs.bisection import (
    bollobas_bisection_lower_bound,
    estimate_bisection_bandwidth,
)
from repro.graphs.csr import (
    CSRGraph,
    bfs_source_chunk,
    csr_graph,
    distance_memo_stats,
    index_dtype,
)
from repro.graphs.properties import (
    average_path_length,
    diameter,
    path_length_distribution,
)
from repro.graphs.regular import random_regular_graph
from repro.graphs.sampling import (
    SampledCutStats,
    SampledPathStats,
    sampled_bisection_stats,
    sampled_path_length_stats,
    throughput_upper_bound,
)

__all__ = [
    "CSRGraph",
    "bfs_source_chunk",
    "csr_graph",
    "distance_memo_stats",
    "index_dtype",
    "bollobas_bisection_lower_bound",
    "estimate_bisection_bandwidth",
    "average_path_length",
    "diameter",
    "path_length_distribution",
    "random_regular_graph",
    "SampledCutStats",
    "SampledPathStats",
    "sampled_bisection_stats",
    "sampled_path_length_stats",
    "throughput_upper_bound",
]
