"""Two-layer ("localized") Jellyfish for container data centers (Fig 14).

For massive, container-built data centers the paper restricts a fraction of
every switch's random links to stay inside its own container (pod), so that
most cables stay short and only the remainder crosses containers.  The
result is a two-layered random graph: a random graph inside each container
and a random graph between containers.  Fig 14 shows throughput degrades by
less than ~6% even when 60% of links are localized.

Both layers are wired by the random step that builds Jellyfish
(:func:`repro.graphs.regular.fill_random_links` over index rows, stopping
when stuck instead of splicing); the cross-container rule of the global
layer is its ``allowed`` predicate.
"""

from __future__ import annotations

from typing import Hashable, List

from repro.graphs.regular import fill_random_links, graph_from_rows
from repro.topologies.base import Topology, TopologyError
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_fraction, require_integer


def build_localized_jellyfish(
    num_containers: int,
    switches_per_container: int,
    ports_per_switch: int,
    network_degree: int,
    servers_per_switch: int,
    local_fraction: float,
    rng: RngLike = None,
) -> Topology:
    """Build a two-layer Jellyfish with ``local_fraction`` of links in-container.

    Each switch devotes ``round(local_fraction * network_degree)`` ports to a
    random graph inside its container and the remaining network ports to a
    random graph across containers.  Switch identifiers are
    ``(container_index, switch_index)``.
    """
    require_integer(num_containers, "num_containers")
    require_integer(switches_per_container, "switches_per_container")
    require_integer(ports_per_switch, "ports_per_switch")
    require_integer(network_degree, "network_degree")
    require_integer(servers_per_switch, "servers_per_switch")
    require_fraction(local_fraction, "local_fraction")
    if network_degree + servers_per_switch > ports_per_switch:
        raise TopologyError("network_degree + servers_per_switch exceeds port count")
    if num_containers < 1 or switches_per_container < 2:
        raise TopologyError("need at least one container with two switches")

    rand = ensure_rng(rng)
    local_degree = int(round(local_fraction * network_degree))
    local_degree = min(local_degree, switches_per_container - 1)
    global_degree = network_degree - local_degree

    num_switches = num_containers * switches_per_container
    rows: List[dict] = [{} for _ in range(num_switches)]
    # Local layer: a random graph inside each container.
    free = [local_degree] * num_switches
    for start in range(0, num_switches, switches_per_container):
        fill_random_links(rows, free, range(start, start + switches_per_container), rand)
    # Global layer: random links across containers only.
    if num_containers > 1:
        fill_random_links(
            rows,
            [global_degree] * num_switches,
            range(num_switches),
            rand,
            allowed=lambda u, v: u // switches_per_container != v // switches_per_container,
        )
    labels = [
        (container, index)
        for container in range(num_containers)
        for index in range(switches_per_container)
    ]
    graph = graph_from_rows(labels, rows)

    ports = {node: ports_per_switch for node in graph.nodes}
    servers = {node: servers_per_switch for node in graph.nodes}
    return Topology(
        graph,
        ports,
        servers,
        name=f"jellyfish-localized-{local_fraction:.0%}",
    )


def container_of(switch: Hashable) -> int:
    """Container index of a switch created by :func:`build_localized_jellyfish`."""
    return switch[0]


def local_link_fraction(topology: Topology) -> float:
    """Fraction of switch-to-switch links whose endpoints share a container."""
    total = topology.num_links
    if total == 0:
        raise ValueError("topology has no links")
    local = sum(1 for u, v in topology.graph.edges if container_of(u) == container_of(v))
    return local / total


def fattree_local_link_fraction(k: int) -> float:
    """Fraction of fat-tree links that stay inside a pod: 0.5 * (1 + 1/k).

    From the paper Section 6.3, when each fat-tree pod becomes a container
    and the core switches are divided equally among the pods.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    return 0.5 * (1.0 + 1.0 / k)
