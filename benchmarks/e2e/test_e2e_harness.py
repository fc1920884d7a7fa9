"""Checks of the end-to-end benchmark harness on one small sweep run.

Runs ``fig02c`` at small scale, seed 0, through the same child-process path
the benchmark uses: one untraced and one traced repetition.
"""

from __future__ import annotations

import copy
import json

import pytest

import layers
import run

RUNS = [("fig02c", "small", 0)]


@pytest.fixture(scope="module")
def reps():
    with run.work_dir() as scratch:
        env = run.child_env(scratch)
        return run.spawn("plain", RUNS, env), run.spawn("traced", RUNS, env)


def test_every_benchmark_metric_is_reported_with_its_unit(reps):
    plain, traced = reps
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reported = {**run.end_to_end([plain], []), **run.per_layer([plain], [traced])}
    for spec in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert reported[spec["name"]]["unit"] == spec["unit"], spec["name"]
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    assert reported["trace.coverage"]["value"] >= 0.95


def test_traced_rows_equal_untraced_rows(reps):
    plain, traced = reps
    assert plain["errors"] == traced["errors"] == {}
    assert run.values_match(plain["rows"][run.run_key(RUNS[0])], traced["rows"][run.run_key(RUNS[0])])
    attempted, failed, checked, messages = run.check_outputs([plain, traced], run.load_expected())
    assert (attempted, failed, checked, messages) == (2, 0, True, [])


def test_perturbed_expected_row_is_reported_as_a_failure(reps):
    plain, _ = reps
    key = run.run_key(RUNS[0])
    expected = copy.deepcopy(run.load_expected()[key])
    row = expected[0]
    column = next(i for i, value in enumerate(row) if isinstance(value, (int, float)))
    row[column] = row[column] * 1.001 + 1
    attempted, failed, _, messages = run.check_outputs([plain], {key: expected})
    assert (attempted, failed) == (1, 1)
    assert "differs from expected.json" in messages[0] and "row 0" in messages[0]


def test_children_get_no_repro_settings(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_MEMORY_MB", "64")
    env = run.child_env(str(tmp_path))
    assert "REPRO_TRACE" not in env and "REPRO_MEMORY_MB" not in env
    assert env["REPRO_CACHE_DIR"].startswith(str(tmp_path))
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == run.THREADS


def test_wrappers_patch_every_binding_and_restore_it():
    from repro.experiments import fig04_swdc
    from repro.flow import throughput
    from repro.flow.path_lp import PathLPStructure

    original = throughput.normalized_throughput
    solve = PathLPStructure.__dict__["solve"]
    instrumentation = layers.Instrumentation()
    instrumentation.install()
    try:
        assert fig04_swdc.normalized_throughput is throughput.normalized_throughput
        assert fig04_swdc.normalized_throughput.__wrapped__ is original
        assert PathLPStructure.__dict__["solve"].__wrapped__ is solve
    finally:
        instrumentation.restore()
    assert fig04_swdc.normalized_throughput is original
    assert throughput.normalized_throughput is original
    assert PathLPStructure.__dict__["solve"] is solve
