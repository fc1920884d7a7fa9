"""Benchmark regenerating Fig 10 of the paper: k-shortest-path + MPTCP vs optimal routing."""


def test_bench_fig10(bench_figure):
    bench_figure("fig10")
