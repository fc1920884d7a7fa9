"""Benchmark regenerating Fig 13 of the paper: flow fairness (Jain's index)."""


def test_bench_fig13(bench_figure):
    bench_figure("fig13")
