"""Shared experiment harness: results container, table formatting, registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class ExperimentResult:
    """A reproduced table or figure: named columns and one row per data point."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Sequence] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(tuple(values))

    def __str__(self) -> str:
        return format_table(self)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render an :class:`ExperimentResult` as a fixed-width text table."""
    header = [result.columns]
    body = [[_format_cell(value) for value in row] for row in result.rows]
    widths = [
        max(len(row[i]) for row in header + body) if header + body else 0
        for i in range(len(result.columns))
    ]
    lines = [f"{result.experiment_id}: {result.title}"]
    lines.append("  " + "  ".join(name.ljust(width) for name, width in zip(result.columns, widths)))
    lines.append("  " + "  ".join("-" * width for width in widths))
    for row in body:
        lines.append("  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    if result.notes:
        lines.append(f"  note: {result.notes}")
    return "\n".join(lines)


# Registry mapping experiment id -> sweep module path (see repro.engine.registry).
EXPERIMENTS: Dict[str, str] = {
    "fig01": "repro.experiments.fig01_path_length",
    "fig02a": "repro.experiments.fig02a_bisection",
    "fig02a-ens": "repro.experiments.fig02a_ensemble",
    "fig02a-scale": "repro.experiments.fig02a_scale",
    "fig02b": "repro.experiments.fig02b_equipment_cost",
    "fig02c": "repro.experiments.fig02c_servers_full_throughput",
    "fig03": "repro.experiments.fig03_degree_diameter",
    "fig04": "repro.experiments.fig04_swdc",
    "fig05": "repro.experiments.fig05_path_length_scaling",
    "fig05-ens": "repro.experiments.fig05_ensemble",
    "fig05-scale": "repro.experiments.fig05_scale",
    "fig06": "repro.experiments.fig06_incremental",
    "fig07": "repro.experiments.fig07_legup",
    "fig08": "repro.experiments.fig08_failures",
    "fig08-ens": "repro.experiments.fig08_ensemble",
    "fig08-lifecycle": "repro.experiments.fig08_lifecycle",
    "fig09": "repro.experiments.fig09_ecmp_diversity",
    "table1": "repro.experiments.table1_routing_cc",
    "fig10": "repro.experiments.fig10_sim_vs_optimal",
    "fig11": "repro.experiments.fig11_servers_packet_level",
    "fig12": "repro.experiments.fig12_stability",
    "fig12-dynamics": "repro.experiments.fig12_dynamics",
    "fig13": "repro.experiments.fig13_fairness",
    "fig13-dynamics": "repro.experiments.fig13_dynamics",
    "fig14": "repro.experiments.fig14_localization",
}


def list_experiments() -> List[str]:
    """Identifiers of every reproducible table/figure."""
    return sorted(EXPERIMENTS)
