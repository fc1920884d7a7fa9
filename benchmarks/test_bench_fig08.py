"""Benchmark regenerating Fig 8 of the paper: throughput under random link failures."""


def test_bench_fig08(bench_figure):
    bench_figure("fig08")
