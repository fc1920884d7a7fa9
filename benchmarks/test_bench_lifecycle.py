"""Benchmarks and acceptance guard for the lifecycle metric backends.

The pytest-benchmark rows time a 200-event scenario through both backends
(after asserting trajectory parity); the snapshot guard pins the committed
``BENCH_lifecycle.json`` acceptance row at >= 5x, so a regression in the
incremental maintenance path cannot land silently --
``record_lifecycle.py`` refuses to write a snapshot below the floor, and
this test refuses a snapshot that was never re-recorded.
"""

import json
from pathlib import Path

import pytest

from repro.lifecycle import LifecycleConfig, run_lifecycle
from repro.memo import clear_memos
from repro.topologies.jellyfish import JellyfishTopology

from oracles.lifecycle import ColdMetrics

SNAPSHOT = Path(__file__).resolve().parent / "BENCH_lifecycle.json"

QUICK_CONFIG = LifecycleConfig(
    duration_hours=650.0,
    link_failure_rate=0.45,
    switch_failure_rate=0.045,
    link_mttr_hours=1.0,
    switch_mttr_hours=2.0,
    epoch_interval_hours=130.0,
    max_events=200,
    routing="ecmp",
    k=4,
    congestion_control="tcp1",
    traffic="fixed",
)


def _clear_shared_state():
    clear_memos()


@pytest.fixture(scope="module")
def quick_plant():
    plant = JellyfishTopology.build(64, 12, 9, rng=5)
    reference = run_lifecycle(plant, QUICK_CONFIG, seed=5, metrics_class=ColdMetrics)
    incremental = run_lifecycle(plant, QUICK_CONFIG, seed=5)
    assert reference.event_log == incremental.event_log
    assert reference.epochs == incremental.epochs
    return plant


def test_bench_lifecycle_incremental(benchmark, quick_plant):
    _clear_shared_state()
    result = benchmark(run_lifecycle, quick_plant, QUICK_CONFIG, seed=5)
    assert result.events_applied == 200


def test_bench_lifecycle_reference(benchmark, quick_plant):
    _clear_shared_state()
    result = benchmark.pedantic(
        run_lifecycle,
        args=(quick_plant, QUICK_CONFIG),
        kwargs={"seed": 5, "metrics_class": ColdMetrics},
        iterations=1,
        rounds=2,
    )
    assert result.events_applied == 200


def test_lifecycle_snapshot_pins_speedup():
    snapshot = json.loads(SNAPSHOT.read_text())
    rows = {case["kernel"]: case for case in snapshot["cases"]}
    acceptance = rows["lifecycle_1000_events"]
    assert acceptance["speedup"] >= 5.0
    assert acceptance["graph"].startswith("jellyfish N=128 (1000 events")
