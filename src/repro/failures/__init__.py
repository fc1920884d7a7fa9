"""Failure injection (paper Section 4.3, Fig 8) and degradation semantics."""

from repro.failures.degradation import (
    DegradationReport,
    degradation_report,
    split_reachable_demands,
)
from repro.failures.injection import (
    fail_random_links,
    fail_random_switches,
    throughput_under_link_failures,
)

__all__ = [
    "DegradationReport",
    "degradation_report",
    "fail_random_links",
    "fail_random_switches",
    "split_reachable_demands",
    "throughput_under_link_failures",
]
