"""Accessors the tests read from an :class:`~repro.experiments.common.ExperimentResult`.

The program reads rows positionally (``columns`` and ``rows``); tests
address values by column name.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import ExperimentResult


def row_dicts(result: ExperimentResult) -> List[dict]:
    """Each row as ``{column: value}``."""
    return [dict(zip(result.columns, row)) for row in result.rows]


def column(result: ExperimentResult, name: str) -> list:
    """All values of one column, in row order."""
    index = result.columns.index(name)
    return [row[index] for row in result.rows]
