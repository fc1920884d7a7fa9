"""Experiment sweeps: one module per table/figure in the paper's evaluation.

Every module is a sweep with two entry points: ``build_specs(scale, seed)``
declares its scenario points and ``assemble(values, scale, seed)`` turns
their values into a :class:`repro.experiments.common.ExperimentResult`
whose rows mirror the series the paper plots.  Run one with
:func:`repro.engine.registry.run_sweep`.  ``scale`` is ``"small"`` (fast,
used by the benchmark suite and CI) or ``"paper"`` (closer to the paper's
sizes; slower).
"""

from repro.experiments.common import ExperimentResult, format_table, list_experiments

__all__ = ["ExperimentResult", "format_table", "list_experiments"]
