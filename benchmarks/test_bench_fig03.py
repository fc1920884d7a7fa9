"""Benchmark regenerating Fig 3 of the paper: Jellyfish vs best-known degree-diameter graphs."""


def test_bench_fig03(bench_figure):
    bench_figure("fig03")
