"""Benchmark regenerating Fig 2(b) of the paper: equipment cost vs servers at full bisection bandwidth."""


def test_bench_fig02b(bench_figure):
    bench_figure("fig02b")
