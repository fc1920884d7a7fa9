"""Benchmark regenerating Fig 4 of the paper: Jellyfish vs small-world data center variants."""


def test_bench_fig04(bench_figure):
    bench_figure("fig04")
