"""Benchmark regenerating Fig 11 of the paper: servers at fat-tree throughput with routing and congestion control."""


def test_bench_fig11(bench_figure):
    bench_figure("fig11")
