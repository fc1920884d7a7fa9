"""Benchmark regenerating Fig 2(a) of the paper: normalized bisection bandwidth vs servers (equal equipment)."""


def test_bench_fig02a(bench_figure):
    bench_figure("fig02a")
