"""Fig 7: incremental expansion cost -- Jellyfish vs LEGUP-like Clos upgrades.

Both planners run the same expansion arc under the same per-stage budget and
cost model: the initial stage builds a network for 480 servers, the first
expansion adds 240 servers, and every later stage only adds switching
capacity.  The paper's result: Jellyfish reaches a given bisection bandwidth
at a small fraction of the Clos planner's cumulative budget (LEGUP pays for
structure and reserved ports).
"""

from __future__ import annotations

from typing import Any, List

from repro.engine.spec import ScenarioSpec
from repro.expansion.cost import CostModel
from repro.expansion.legup import ClosExpansionPlanner
from repro.expansion.planner import JellyfishExpansionPlanner
from repro.experiments.common import ExperimentResult
from repro.utils.rng import ensure_rng

_SCALES = {
    "small": {
        "initial_servers": 120,
        "expansion_servers": 60,
        "stages": 4,
        "budget_per_stage": 60_000.0,
    },
    "paper": {
        "initial_servers": 480,
        "expansion_servers": 240,
        "stages": 9,
        "budget_per_stage": 100_000.0,
    },
}

_SWITCH_PORTS = 24
_SERVERS_PER_LEAF = 15

_TARGET = "repro.experiments.fig07_legup:compute_rows"


def compute_rows(scale: str, seed: int = 0) -> list:
    """Scenario target: every row of the figure, from one rng stream."""
    config = _SCALES[scale]
    rng = ensure_rng(seed)
    cost_model = CostModel()

    clos = ClosExpansionPlanner(
        leaf_ports=_SWITCH_PORTS,
        spine_ports=2 * _SWITCH_PORTS,
        servers_per_leaf=_SERVERS_PER_LEAF,
        reserved_ports_per_leaf=3,
        cost_model=cost_model,
    )
    jellyfish = JellyfishExpansionPlanner(
        switch_ports=_SWITCH_PORTS,
        servers_per_switch=_SERVERS_PER_LEAF,
        cost_model=cost_model,
        rng=rng,
    )

    rows = []
    budget = config["budget_per_stage"]
    for stage in range(config["stages"]):
        if stage == 0:
            new_servers = config["initial_servers"]
        elif stage == 1:
            new_servers = config["expansion_servers"]
        else:
            new_servers = 0
        clos_state = clos.expand(budget, new_servers=new_servers)
        jelly_state = jellyfish.expand(budget, new_servers=new_servers)
        rows.append(
            [
                stage,
                budget * (stage + 1),
                jelly_state.num_servers,
                clos_state.normalized_bisection_bandwidth(),
                jelly_state.normalized_bisection,
            ]
        )
    return rows


def build_specs(scale: str = "small", seed: int = 0) -> List[ScenarioSpec]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return [ScenarioSpec.grid(_TARGET, name="fig07", seed=seed, scale=scale)]


def assemble(values: List[Any], scale: str, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig07",
        title="Bisection bandwidth vs cumulative budget: Jellyfish vs Clos (LEGUP-like)",
        columns=[
            "stage",
            "cumulative_budget",
            "num_servers",
            "clos_normalized_bisection",
            "jellyfish_normalized_bisection",
        ],
    )
    for row in values[0]:
        result.add_row(*row)
    return result
