"""Data-center topologies: Jellyfish and the baselines it is compared against."""

from repro.topologies.base import Topology, TopologyError
from repro.topologies.clos import LeafSpineTopology
from repro.topologies.core import TopologyCore
from repro.topologies.degree_diameter import (
    hoffman_singleton_graph,
    optimized_low_diameter_graph,
    petersen_graph,
)
from repro.topologies.fattree import FatTreeTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.topologies.swdc import SmallWorldTopology

__all__ = [
    "Topology",
    "TopologyCore",
    "TopologyError",
    "LeafSpineTopology",
    "FatTreeTopology",
    "JellyfishTopology",
    "SmallWorldTopology",
    "hoffman_singleton_graph",
    "optimized_low_diameter_graph",
    "petersen_graph",
]
