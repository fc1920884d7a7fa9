"""Benchmark regenerating Fig 12 of the paper: throughput stability envelope."""


def test_bench_fig12(bench_figure):
    bench_figure("fig12")
