"""Smoke, golden-row and shape tests for the experiment sweeps.

``tests/golden/small_seed{0,1,3}.json`` pin the rows every experiment
produces at small scale, seeds 0, 1 and 3.  Rewrite all three with
``PYTHONPATH=src python tests/test_experiments.py`` only when a change is
meant to alter results.
"""

import json
import math
from itertools import zip_longest
from pathlib import Path

import pytest

from repro.engine import run_sweep
from repro.experiments.common import ExperimentResult, format_table, list_experiments
from repro.memo import clear_memos, memo_stats
from repro.resources import ExecutionProfile

ALL_EXPERIMENTS = list_experiments()

GOLDEN_SEEDS = (0, 1, 3)


def golden_path(seed: int) -> Path:
    return Path(__file__).parent / "golden" / f"small_seed{seed}.json"


GOLDEN = golden_path(0)


def _plain(value):
    """JSON-shaped rows: tuples become lists, numpy scalars Python numbers."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value.item() if hasattr(value, "item") else value


def _matches(expected, actual) -> bool:
    """The end-to-end benchmark's rule: floats equal within a relative 1e-9,
    everything else exactly."""
    if isinstance(expected, float) or isinstance(actual, float):
        return (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))
            and math.isclose(expected, actual, rel_tol=1e-9, abs_tol=0.0)
        )
    if isinstance(expected, list) and isinstance(actual, list):
        return len(expected) == len(actual) and all(map(_matches, expected, actual))
    return type(expected) is type(actual) and expected == actual


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["rows"]


def golden_diff(result: ExperimentResult, golden) -> list:
    """Rows of ``result`` that differ from ``golden`` by :func:`_matches`."""
    expected = golden[result.experiment_id]
    rows = _plain(result.rows)
    return [
        f"row {index}: expected {want!r}, got {got!r}"
        for index, (want, got) in enumerate(zip_longest(expected, rows))
        if not _matches(want, got)
    ]


def assert_golden_rows(result: ExperimentResult, golden) -> None:
    diff = golden_diff(result, golden)
    assert not diff, f"{result.experiment_id} differs from {GOLDEN.name}:\n" + "\n".join(diff)


class TestRegistry:
    def test_all_experiments_registered(self):
        # 17 paper figures/tables + 3 ensemble variants (fig02a/05/08-ens)
        # + 2 AIMD dynamics variants (fig12/13-dynamics)
        # + the fig08-lifecycle failure/repair timeline
        # + 2 hyperscale sampled sweeps (fig02a/05-scale).
        assert len(ALL_EXPERIMENTS) == 25
        assert "fig01" in ALL_EXPERIMENTS
        assert "table1" in ALL_EXPERIMENTS
        assert "fig05-ens" in ALL_EXPERIMENTS
        assert "fig08-ens" in ALL_EXPERIMENTS
        assert "fig02a-ens" in ALL_EXPERIMENTS
        assert "fig12-dynamics" in ALL_EXPERIMENTS
        assert "fig13-dynamics" in ALL_EXPERIMENTS
        assert "fig05-scale" in ALL_EXPERIMENTS
        assert "fig02a-scale" in ALL_EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_sweep("fig99")


class TestResultContainer:
    def test_add_row_validates_length(self):
        result = ExperimentResult("x", "t", ["a", "b"])
        result.add_row(1, 2)
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_column_access(self):
        result = ExperimentResult("x", "t", ["a", "b"])
        result.add_row(1, 2)
        result.add_row(3, 4)
        assert result.column("b") == [2, 4]
        with pytest.raises(KeyError):
            result.column("c")

    def test_as_dicts_and_format(self):
        result = ExperimentResult("x", "t", ["a"], notes="hello")
        result.add_row(1.23456)
        assert result.as_dicts() == [{"a": 1.23456}]
        text = format_table(result)
        assert "x: t" in text and "hello" in text


@pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
def test_every_experiment_runs_at_small_scale(experiment_id, golden):
    result = run_sweep(experiment_id, scale="small", seed=0)
    assert isinstance(result, ExperimentResult)
    assert result.rows, f"{experiment_id} produced no rows"
    assert result.experiment_id == experiment_id
    assert_golden_rows(result, golden)
    # The formatted table must render without errors.
    assert format_table(result)


def test_every_experiment_matches_golden_rows_at_seeds_1_and_3():
    diffs = []
    for seed in (1, 3):
        golden_rows = json.loads(golden_path(seed).read_text())["rows"]
        for experiment_id in ALL_EXPERIMENTS:
            result = run_sweep(experiment_id, scale="small", seed=seed)
            diffs += [
                f"{experiment_id} seed {seed} {line}"
                for line in golden_diff(result, golden_rows)
            ]
    assert not diffs, "\n".join(diffs)


@pytest.mark.parametrize(
    "experiment_id", ["fig02c", "table1", "fig09", "fig10", "fig13-dynamics"]
)
def test_one_entry_memos_leave_rows_unchanged(experiment_id, golden, monkeypatch):
    """Memos are invisible in results, even when each holds one entry."""
    import repro.memo

    # Patched where memos read it: sweep points activate their own profile.
    one_entry = ExecutionProfile(memory_scale=1e-12)
    monkeypatch.setattr(repro.memo, "active_profile", lambda: one_entry)
    clear_memos()
    result = run_sweep(experiment_id, scale="small", seed=0)
    stats = memo_stats()
    clear_memos()
    assert_golden_rows(result, golden)
    for namespace in ("graphs.dist_rows", "routing.path_sets"):
        assert stats[namespace]["entries"] <= 1


def test_kept_memos_hit_on_table1():
    """The distance-row and path-set memos pay on packet-level work: a key
    change that silently stops either from hitting fails here."""
    clear_memos()
    run_sweep("table1", scale="small", seed=0)
    stats = memo_stats()
    clear_memos()
    for namespace in ("graphs.dist_rows", "routing.path_sets"):
        assert stats[namespace]["hits"] > stats[namespace]["misses"] > 0


class TestHeadlineClaims:
    """The qualitative results the paper leads with must reproduce."""

    def test_fig01_jellyfish_reaches_more_servers_in_fewer_hops(self):
        result = run_sweep("fig01", scale="small", seed=0)
        rows = result.as_dicts()
        # At an intermediate hop count Jellyfish's CDF dominates the fat-tree's.
        intermediate = [r for r in rows if 0.05 < r["fattree_fraction"] < 0.999]
        assert intermediate
        assert all(
            r["jellyfish_fraction"] >= r["fattree_fraction"] - 1e-9 for r in intermediate
        )

    def test_fig02c_jellyfish_supports_at_least_as_many_servers(self):
        result = run_sweep("fig02c", scale="small", seed=0)
        advantages = result.column("jellyfish_advantage")
        assert max(advantages) >= 1.0

    def test_fig05_short_paths(self):
        result = run_sweep("fig05", scale="small", seed=0)
        assert all(value <= 4 for value in result.column("scratch_diameter"))

    def test_fig06_incremental_matches_scratch(self):
        result = run_sweep("fig06", scale="small", seed=0)
        for row in result.as_dicts():
            assert row["incremental_throughput"] == pytest.approx(
                row["from_scratch_throughput"], abs=0.1
            )

    def test_fig07_jellyfish_beats_clos_expansion(self):
        result = run_sweep("fig07", scale="small", seed=0)
        last = result.as_dicts()[-1]
        assert last["jellyfish_normalized_bisection"] > last["clos_normalized_bisection"]

    def test_fig08_graceful_degradation(self):
        result = run_sweep("fig08", scale="small", seed=0)
        rows = result.as_dicts()
        baseline = rows[0]["jellyfish_throughput"]
        worst = rows[-1]["jellyfish_throughput"]
        assert worst >= baseline - 0.45

    def test_fig09_ksp_spreads_better_than_ecmp(self):
        result = run_sweep("fig09", scale="small", seed=0)
        rows = {row["routing"]: row for row in result.as_dicts()}
        assert (
            rows["8 shortest paths"]["fraction_links_on_at_most_2_paths"]
            < rows["8-way ECMP"]["fraction_links_on_at_most_2_paths"]
        )

    def test_table1_orderings(self):
        result = run_sweep("table1", scale="small", seed=0)
        rows = {row["congestion_control"]: row for row in result.as_dicts()}
        mptcp = rows["MPTCP 8 subflows"]
        # k-shortest-path routing recovers the capacity ECMP wastes on Jellyfish.
        assert mptcp["jellyfish_8_shortest_paths"] > mptcp["jellyfish_ecmp"]
        # Multi-path congestion control beats single-flow TCP on the fat-tree.
        assert mptcp["fattree_ecmp"] > rows["TCP 1 flow"]["fattree_ecmp"]

    def test_fig13_fairness_is_high(self):
        result = run_sweep("fig13", scale="small", seed=0)
        assert all(value > 0.8 for value in result.column("jain_fairness_index"))

    def test_fig13_dynamics_tracks_fluid_fairness(self):
        result = run_sweep("fig13-dynamics", scale="small", seed=0)
        rows = result.as_dicts()
        # The dynamic controller should land near the fluid equilibrium's
        # fairness and below-or-near its average throughput.
        for row in rows:
            assert row["aimd_fairness"] > 0.8
            assert row["aimd_throughput"] <= row["fluid_throughput"] + 0.1

    def test_fig12_dynamics_reports_convergence(self):
        result = run_sweep("fig12-dynamics", scale="small", seed=0)
        for row in result.as_dicts():
            assert 0.0 <= row["converged_fraction"] <= 1.0
            assert row["min"] <= row["mean"] <= row["max"]

    def test_fig14_localization_costs_little(self):
        result = run_sweep("fig14", scale="small", seed=0)
        rows = result.as_dicts()
        moderate = [r for r in rows if r["requested_local_fraction"] <= 0.6]
        assert all(r["throughput_normalized_to_unrestricted"] > 0.7 for r in moderate)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for seed in GOLDEN_SEEDS:
        rows = {
            experiment_id: _plain(run_sweep(experiment_id, scale="small", seed=seed).rows)
            for experiment_id in ALL_EXPERIMENTS
        }
        golden_path(seed).write_text(
            json.dumps({"scale": "small", "seed": seed, "rows": rows}, indent=1, sort_keys=True)
            + "\n"
        )
