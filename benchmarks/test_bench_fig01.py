"""Benchmark regenerating Fig 1(c) of the paper: path-length CDF, Jellyfish vs same-equipment fat-tree."""


def test_bench_fig01(bench_figure):
    bench_figure("fig01")
