"""Tests for sweep execution (repro.engine.runner)."""

import pytest

from repro.engine.cache import ResultCache
from repro.engine.runner import SweepError, SweepRunner
from repro.engine.spec import ScenarioPoint, ScenarioSpec

TARGET = "repro.experiments.fig02a_bisection:jellyfish_curve_point"
FAILING_TARGET = "repro.experiments.fig02a_bisection:build_specs"  # wrong kwargs -> TypeError


def _grid(servers):
    return ScenarioSpec.grid(
        TARGET, num_switches=720, ports=24, servers=list(servers)
    ).points()


class TestSerialExecution:
    def test_results_in_input_order(self):
        points = _grid([720, 1440, 2160])
        outcomes = SweepRunner().run(points)
        assert [o.point for o in outcomes] == points
        values = [o.value for o in outcomes]
        # Fewer servers leave more network ports, so the curve decreases.
        assert values == sorted(values, reverse=True)
        assert all(not o.cached for o in outcomes)
        assert all(o.duration_s >= 0 for o in outcomes)

    def test_run_values_matches_run(self):
        points = _grid([720, 1440])
        runner = SweepRunner()
        assert runner.run_values(points) == [o.value for o in runner.run(points)]

    def test_duplicate_points_execute_once(self):
        point = _grid([720])[0]
        duplicate = ScenarioPoint(point.target, dict(point.params))
        outcomes = SweepRunner().run([point, duplicate])
        assert outcomes[0].value == outcomes[1].value
        assert not outcomes[0].cached
        assert outcomes[1].cached  # served by the dedup pass, not re-executed

    def test_progress_callback_sees_every_point(self):
        events = []
        runner = SweepRunner(progress=lambda done, total, outcome: events.append((done, total)))
        runner.run(_grid([720, 1440, 2160]))
        assert events == [(1, 3), (2, 3), (3, 3)]

    def test_empty_sweep(self):
        assert SweepRunner().run([]) == []

    def test_execution_error_is_wrapped(self):
        point = ScenarioPoint(FAILING_TARGET, {"no_such_kwarg": 1})
        with pytest.raises(SweepError, match=point.scenario_hash[:12]):
            SweepRunner().run([point])

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=-1)


class TestCachedExecution:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        points = _grid([720, 1440, 2160])
        cold = ResultCache(tmp_path)
        first = SweepRunner(cache=cold).run(points)
        assert cold.stats.misses == 3 and cold.stats.writes == 3

        warm = ResultCache(tmp_path)
        second = SweepRunner(cache=warm).run(points)
        assert warm.stats.hits == 3 and warm.stats.misses == 0
        assert all(o.cached for o in second)
        assert [o.value for o in first] == [o.value for o in second]

    def test_overlapping_sweeps_share_points(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run(_grid([720, 1440]))
        outcomes = SweepRunner(cache=cache).run(_grid([1440, 2160]))
        assert [o.cached for o in outcomes] == [True, False]


class TestParallelExecution:
    def test_pool_matches_serial(self):
        points = _grid([720, 1440, 2160, 2880])
        serial = SweepRunner(workers=0).run_values(points)
        parallel = SweepRunner(workers=2).run_values(points)
        assert parallel == serial

    def test_pool_with_cache(self, tmp_path):
        points = _grid([720, 1440, 2160])
        cache = ResultCache(tmp_path)
        first = SweepRunner(workers=2, cache=cache).run_values(points)
        warm = ResultCache(tmp_path)
        second = SweepRunner(workers=2, cache=warm).run_values(points)
        assert first == second
        assert warm.stats.hits == 3


class TestSupervisedSemantics:
    def test_healthy_outcomes_report_status_and_attempts(self):
        outcomes = SweepRunner().run(_grid([720, 1440]))
        assert all(o.status == "ok" for o in outcomes)
        assert all(o.attempts == 1 for o in outcomes)
        assert all(o.failure is None for o in outcomes)

    def test_cached_outcomes_have_zero_attempts(self, tmp_path):
        points = _grid([720])
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run(points)
        outcome = SweepRunner(cache=ResultCache(tmp_path)).run(points)[0]
        assert outcome.cached and outcome.attempts == 0

    def test_sweep_failure_is_a_sweep_error(self):
        from repro.engine.runner import SweepFailure

        assert issubclass(SweepFailure, SweepError)

    def test_failure_carries_all_outcomes(self):
        good = _grid([720])[0]
        bad = ScenarioPoint(FAILING_TARGET, {"no_such_kwarg": 1})
        runner = SweepRunner(max_attempts=1)
        with pytest.raises(SweepError) as excinfo:
            runner.run([good, bad])
        outcomes = excinfo.value.outcomes
        assert outcomes[0].status == "ok" and outcomes[0].value is not None
        assert outcomes[1].status == "failed" and outcomes[1].value is None
        assert runner.fault_stats.quarantined == 1

    def test_supervised_pool_matches_serial(self):
        points = _grid([720, 1440, 2160])
        serial = SweepRunner(workers=0).run_values(points)
        supervised = SweepRunner(workers=2, timeout_s=600).run_values(points)
        assert supervised == serial

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(max_attempts=0)
        with pytest.raises(ValueError):
            SweepRunner(timeout_s=0)
        with pytest.raises(ValueError):
            SweepRunner(timeout_s=-1.0)
