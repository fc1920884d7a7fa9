"""Benchmark regenerating Table 1 of the paper: routing x congestion-control throughput matrix."""


def test_bench_table1(bench_figure):
    bench_figure("table1")
