"""Failure injection (paper Section 4.3, Fig 8).

:func:`repro.flow.throughput.degraded_throughput` evaluates the failed
topologies: a demand cut off by a partition carries zero throughput.
"""

from repro.failures.injection import (
    fail_random_links,
    fail_random_switches,
    throughput_under_link_failures,
)

__all__ = [
    "fail_random_links",
    "fail_random_switches",
    "throughput_under_link_failures",
]
