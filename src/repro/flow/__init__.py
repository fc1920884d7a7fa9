"""Flow-level capacity machinery: LP optimal routing, max-min fairness."""

from repro.flow.maxmin import FlowSpec, max_min_fair_allocation
from repro.flow.mcf import max_concurrent_flow_edge_lp
from repro.flow.path_lp import (
    PathLPStructure,
    max_concurrent_flow_path_lp,
    shared_path_lp_structure,
)
from repro.flow.throughput import (
    ThroughputResult,
    max_servers_at_full_throughput,
    mean_normalized_throughput,
    normalized_throughput,
    supports_full_throughput,
)

__all__ = [
    "FlowSpec",
    "max_min_fair_allocation",
    "max_concurrent_flow_edge_lp",
    "max_concurrent_flow_path_lp",
    "PathLPStructure",
    "shared_path_lp_structure",
    "ThroughputResult",
    "max_servers_at_full_throughput",
    "mean_normalized_throughput",
    "normalized_throughput",
    "supports_full_throughput",
]
