"""Benchmark the scenario engine: parallel sharding and cache-hit speedup.

Two properties of the engine are measured on real workloads (Jellyfish
construction + path-LP throughput, the per-point work behind Fig 8's
ensemble, whose target these points run):

1. **Sharding** -- the same grid executed serially and with
   ``SweepRunner(workers=4)``.  The speedup is reported (it depends on the
   machine's core count and is pure overhead on a single-core box), and the
   results must be identical either way; wall-clock is deliberately not
   asserted so a noisy CI runner cannot fail the suite on a timing fluke.
2. **Caching** -- a cold run against an empty cache versus a warm re-run of
   the same sweep, which must serve every point from disk and be much
   faster than re-solving the LPs.
"""

import multiprocessing
import time

from repro.engine import ResultCache, ScenarioSpec, SweepRunner, expand, run_sweep

THROUGHPUT_GRID = ScenarioSpec.grid(
    "repro.topologies.ensemble:ensemble_failure_point",
    seed=0,
    seed_strategy="derived",
    repetitions=2,
    num_switches=[32, 40, 48],
    ports=6,
    num_servers=64,
    fraction=0.0,
)


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def test_bench_parallel_vs_serial_sweep(benchmark):
    points = expand([THROUGHPUT_GRID])
    serial_values, serial_time = _timed(SweepRunner(workers=0).run_values, points)

    timing = {}

    def parallel_run():
        values, timing["parallel"] = _timed(SweepRunner(workers=4).run_values, points)
        return values

    parallel_values = benchmark.pedantic(parallel_run, iterations=1, rounds=1)
    assert parallel_values == serial_values

    parallel_time = timing["parallel"]
    print()
    print(
        f"engine sweep over {len(points)} points: serial {serial_time:.2f}s, "
        f"workers=4 {parallel_time:.2f}s "
        f"(speedup x{serial_time / max(parallel_time, 1e-9):.2f}, "
        f"{multiprocessing.cpu_count()} cpu(s))"
    )


def test_bench_cache_hit_speedup(benchmark, tmp_path):
    points = expand([THROUGHPUT_GRID])

    cold_cache = ResultCache(tmp_path)
    cold_values, cold_time = _timed(SweepRunner(cache=cold_cache).run_values, points)
    assert cold_cache.stats.writes == len(points)

    warm_cache = ResultCache(tmp_path)
    timing = {}

    def warm_run():
        values, timing["warm"] = _timed(SweepRunner(cache=warm_cache).run_values, points)
        return values

    warm_values = benchmark.pedantic(warm_run, iterations=1, rounds=1)
    warm_time = timing["warm"]
    assert warm_values == cold_values
    assert warm_cache.stats.hits == len(points), "warm run must be 100% cache hits"
    assert warm_time < cold_time, "cache hits must beat re-solving the LPs"

    print()
    print(
        f"cache: cold {cold_time * 1000:.0f}ms, warm {warm_time * 1000:.0f}ms "
        f"(speedup x{cold_time / max(warm_time, 1e-9):.1f})"
    )


def test_bench_registered_sweep_with_cache(benchmark, tmp_path):
    """`repro sweep run fig02a` end-to-end: cold then fully-cached re-run."""
    cold = run_sweep("fig02a", runner=SweepRunner(cache=ResultCache(tmp_path)))
    warm_cache = ResultCache(tmp_path)
    warm = benchmark.pedantic(
        run_sweep,
        args=("fig02a",),
        kwargs={"runner": SweepRunner(cache=warm_cache)},
        iterations=1,
        rounds=1,
    )
    assert warm.rows == cold.rows
    assert warm.rows == run_sweep("fig02a").rows
    assert warm_cache.stats.misses == 0


def _baseline_execute(indexed):
    """The seed's unsupervised pool body: execute one (index, point) pair."""
    index, point = indexed
    return index, point.execute()


def _baseline_imap_unordered(points, workers):
    """The pre-supervisor execution loop: bare pool.imap_unordered."""
    values = [None] * len(points)
    with multiprocessing.Pool(processes=workers) as pool:
        for index, value in pool.imap_unordered(
            _baseline_execute, list(enumerate(points))
        ):
            values[index] = value
    return values


def test_bench_supervisor_overhead(benchmark):
    """Fault-free supervised execution must stay within 3% of the bare pool.

    The supervisor adds per-point pipe round-trips, deadline bookkeeping and
    sentinel waits; on a healthy sweep all of that must be noise against the
    LP solves.  Best-of-3 on both sides squeezes out scheduler flukes, and a
    small absolute epsilon keeps a sub-second grid from failing on a
    microsecond-level wobble.
    """
    points = expand([THROUGHPUT_GRID])
    workers = 2

    baseline_values, baseline_time = None, float("inf")
    for _ in range(3):
        values, elapsed = _timed(_baseline_imap_unordered, points, workers)
        baseline_values = values
        baseline_time = min(baseline_time, elapsed)

    timing = {"supervised": float("inf")}

    def supervised_run():
        runner = SweepRunner(workers=workers, timeout_s=600.0)
        values, elapsed = _timed(runner.run_values, points)
        timing["supervised"] = min(timing["supervised"], elapsed)
        assert runner.fault_stats.quarantined == 0
        return values

    supervised_values = benchmark.pedantic(supervised_run, iterations=1, rounds=3)
    supervised_time = timing["supervised"]

    assert supervised_values == baseline_values
    overhead = supervised_time / max(baseline_time, 1e-9) - 1.0
    print()
    print(
        f"supervisor overhead: baseline {baseline_time:.3f}s, "
        f"supervised {supervised_time:.3f}s ({overhead:+.1%})"
    )
    assert supervised_time <= baseline_time * 1.03 + 0.05, (
        f"supervised runner {supervised_time:.3f}s exceeds 3% overhead over "
        f"bare imap_unordered {baseline_time:.3f}s"
    )
