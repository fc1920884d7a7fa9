"""Benchmark regenerating Fig 7 of the paper: expansion cost: Jellyfish vs LEGUP-like Clos upgrades."""


def test_bench_fig07(bench_figure):
    bench_figure("fig07")
