"""Benchmark regenerating Fig 6 of the paper: incremental vs from-scratch Jellyfish throughput."""


def test_bench_fig06(bench_figure):
    bench_figure("fig06")
