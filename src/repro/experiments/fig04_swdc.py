"""Fig 4: Jellyfish vs Small-World Datacenter (SWDC) variants.

Degree-6 topologies with switches holding 2 servers each (the paper first
tries 1 server per switch, finds every variant saturates, and oversubscribes
to 2 servers to expose the capacity differences).  Jellyfish's throughput is
~119% of the best SWDC variant (the ring).
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.experiments.common import ExperimentResult
from repro.flow.throughput import normalized_throughput
from repro.topologies.jellyfish import JellyfishTopology
from repro.topologies.swdc import HEX_TORUS_3D, RING, TORUS_2D, SmallWorldTopology
from repro.utils.rng import ensure_rng
from repro.utils.stats import mean

_SCALES = {
    # Lattices constrain the node counts: the 2D torus needs a square count,
    # the hex torus needs 2 * s^2.
    "small": {"square_nodes": 100, "hex_nodes": 98, "trials": 2},
    "paper": {"square_nodes": 484, "hex_nodes": 450, "trials": 10},
}

_DEGREE = 6
_SERVERS_PER_SWITCH = 2

_TARGET = "repro.experiments.fig04_swdc:compute_rows"


def _throughput(topology, trials, rng) -> float:
    return mean(
        normalized_throughput(topology, k=8, rng=rng).normalized for _ in range(trials)
    )


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)
    square_nodes = config["square_nodes"]
    hex_nodes = config["hex_nodes"]
    trials = config["trials"]

    topologies = {
        "jellyfish": JellyfishTopology.build(
            square_nodes,
            _DEGREE + _SERVERS_PER_SWITCH,
            _DEGREE,
            rng=rng,
            servers_per_switch=_SERVERS_PER_SWITCH,
        ),
        "swdc-ring": SmallWorldTopology.build(
            square_nodes, RING, degree=_DEGREE,
            servers_per_switch=_SERVERS_PER_SWITCH, rng=rng,
        ),
        "swdc-2d-torus": SmallWorldTopology.build(
            square_nodes, TORUS_2D, degree=_DEGREE,
            servers_per_switch=_SERVERS_PER_SWITCH, rng=rng,
        ),
        "swdc-3d-hex-torus": SmallWorldTopology.build(
            hex_nodes, HEX_TORUS_3D, degree=_DEGREE,
            servers_per_switch=_SERVERS_PER_SWITCH, rng=rng,
        ),
    }

    return [
        [name, topology.num_switches, topology.num_servers, _throughput(topology, trials, rng)]
        for name, topology in topologies.items()
    ]


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig04", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig04",
        title="Normalized throughput: Jellyfish vs SWDC variants (degree 6, 2 servers/switch)",
        columns=["topology", "num_switches", "num_servers", "normalized_throughput"],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
