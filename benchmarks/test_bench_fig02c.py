"""Benchmark regenerating Fig 2(c) of the paper: servers at full throughput vs equipment cost (optimal routing)."""


def test_bench_fig02c(bench_figure):
    bench_figure("fig02c")
