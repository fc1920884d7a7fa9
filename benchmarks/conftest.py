"""Shared benchmark fixtures."""

import pytest

from repro.engine import run_sweep
from repro.experiments.common import format_table


@pytest.fixture
def bench_figure(benchmark):
    """Time one figure's sweep at the fast ("small") scale and print its rows.

    Each ``test_bench_<figure>.py`` calls it once, so ``pytest benchmarks/
    --benchmark-only`` doubles as the harness that regenerates every table
    and figure.
    """

    def run(experiment_id: str):
        result = benchmark.pedantic(
            run_sweep, args=(experiment_id,), kwargs={"scale": "small", "seed": 0},
            iterations=1, rounds=1,
        )
        assert result.rows
        print()
        print(format_table(result))

    return run
