"""Benchmark regenerating Fig 9 of the paper: path diversity: ECMP vs k-shortest-path routing."""


def test_bench_fig09(bench_figure):
    bench_figure("fig09")
