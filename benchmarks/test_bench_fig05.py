"""Benchmark regenerating Fig 5 of the paper: path length vs network size, from scratch vs expanded."""


def test_bench_fig05(bench_figure):
    bench_figure("fig05")
