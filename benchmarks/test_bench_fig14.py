"""Benchmark regenerating Fig 14 of the paper: localized (two-layer) Jellyfish throughput."""


def test_bench_fig14(bench_figure):
    bench_figure("fig14")
