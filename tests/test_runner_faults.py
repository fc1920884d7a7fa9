"""Fault-tolerance tests: supervised execution under injected failures.

Every recovery path of the sweep runner is exercised against the
deterministic chaos harness (:mod:`repro.testing.chaos`): transient
exceptions retried with backoff, worker crashes detected through process
sentinels, hangs preempted by wall-clock timeouts, poison points
quarantined without aborting healthy work, torn cache writes caught by the
checksum pass, and resume journals skipping completed points.  Fault
schedules are pure functions of the plan seed and point identity, so each
test is reproducible regardless of worker count or scheduling.
"""

import json

import pytest

from repro.engine.cache import ResultCache
from repro.engine.runner import (
    FaultStats,
    PointFailure,
    SweepFailure,
    SweepRunner,
    backoff_delay,
)
from repro.engine.spec import ScenarioSpec, expand
from repro.testing.chaos import ChaosError, FaultPlan, FaultRule, active_plan

ECHO = "oracles.targets:echo_point"

#: Fast retry schedule so fault tests don't sleep their way to minutes.
FAST = {"backoff_base_s": 0.01, "backoff_cap_s": 0.05}


def _points(xs=(1, 2, 3, 4)):
    return expand(
        [ScenarioSpec.grid(ECHO, seed=0, seed_strategy="derived", x=list(xs))]
    )


def _set_plan(monkeypatch, seed=0, faults=()):
    monkeypatch.setenv(
        "REPRO_FAULTS", json.dumps({"seed": seed, "faults": list(faults)})
    )


class TestFaultPlan:
    def test_parse_inline_and_file(self, tmp_path):
        payload = {"seed": 7, "faults": [{"kind": "error", "indices": [1]}]}
        inline = FaultPlan.parse(json.dumps(payload))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        from_file = FaultPlan.parse(f"@{path}")
        assert inline == from_file
        assert inline.seed == 7
        assert inline.rules[0].kind == "error"

    def test_unknown_rule_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultRule.from_dict({"kind": "error", "bogus": 1})

    def test_bad_kind_and_rate_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultRule(kind="explode")
        with pytest.raises(ValueError, match="rate"):
            FaultRule(kind="error", rate=1.5)

    def test_active_plan_tracks_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert active_plan() is None
        _set_plan(monkeypatch, faults=[{"kind": "error"}])
        plan = active_plan()
        assert plan is not None and plan.rules[0].kind == "error"
        monkeypatch.delenv("REPRO_FAULTS")
        assert active_plan() is None

    def test_error_rule_raises_chaos_error(self):
        plan = FaultPlan(rules=(FaultRule(kind="error", hash_prefix="ab"),))
        with pytest.raises(ChaosError):
            plan.on_execute(0, "abcdef", ECHO, 1)
        plan.on_execute(0, "zzz", ECHO, 1)  # non-matching: no-op

    def test_probabilistic_rules_are_seed_deterministic(self):
        rule = FaultRule(kind="error", rate=0.5)
        hits = [rule.matches(3, 0, f"hash{i}", ECHO, 1) for i in range(64)]
        again = [rule.matches(3, 0, f"hash{i}", ECHO, 1) for i in range(64)]
        assert hits == again
        assert 8 < sum(hits) < 56  # actually probabilistic, not constant


class TestBackoff:
    def test_deterministic_and_growing(self):
        delays = [backoff_delay("abc", a, 0.25, 60.0) for a in (1, 2, 3, 4)]
        assert delays == [backoff_delay("abc", a, 0.25, 60.0) for a in (1, 2, 3, 4)]
        assert delays == sorted(delays)
        # Jitter stays within [1.0, 1.5) of the exponential schedule.
        for attempt, delay in zip((1, 2, 3, 4), delays):
            base = 0.25 * 2 ** (attempt - 1)
            assert base <= delay < base * 1.5

    def test_cap(self):
        assert backoff_delay("abc", 30, 0.25, 2.0) == 2.0

    def test_jitter_decorrelates_points(self):
        assert backoff_delay("abc", 1, 0.25, 60.0) != backoff_delay(
            "xyz", 1, 0.25, 60.0
        )


class TestSerialRecovery:
    def test_transient_error_retried_to_success(self, monkeypatch):
        _set_plan(monkeypatch, faults=[{"kind": "error", "indices": [1], "attempts": [1]}])
        runner = SweepRunner(**FAST)
        outcomes = runner.run(_points())
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert outcomes[1].attempts == 2
        assert runner.fault_stats.errors == 1
        assert runner.fault_stats.retries == 1
        assert runner.fault_stats.quarantined == 0

    def test_poison_point_quarantined_and_raises(self, monkeypatch):
        _set_plan(monkeypatch, faults=[{"kind": "error", "indices": [2]}])
        runner = SweepRunner(max_attempts=2, **FAST)
        with pytest.raises(SweepFailure) as excinfo:
            runner.run(_points())
        outcomes = excinfo.value.outcomes
        # The sweep completed: healthy points all have values.
        assert [o.status for o in outcomes] == ["ok", "ok", "failed", "ok"]
        assert outcomes[2].point.scenario_hash[:12] in str(excinfo.value)
        assert excinfo.value.failures == [outcomes[2]]
        failure = outcomes[2].failure
        assert isinstance(failure, PointFailure)
        assert failure.kind == "error"
        assert failure.history == ["error", "error"]
        assert "ChaosError" in failure.message
        assert runner.fault_stats.quarantined == 1

    def test_raise_on_failure_false_returns_mixed_outcomes(self, monkeypatch):
        _set_plan(monkeypatch, faults=[{"kind": "error", "indices": [0]}])
        runner = SweepRunner(max_attempts=1, raise_on_failure=False, **FAST)
        outcomes = runner.run(_points())
        assert outcomes[0].status == "failed"
        assert outcomes[0].value is None
        assert [o.status for o in outcomes[1:]] == ["ok"] * 3
        assert runner.fault_stats.retries == 0  # max_attempts=1: no retry

    def test_failed_point_not_cached(self, monkeypatch, tmp_path):
        _set_plan(monkeypatch, faults=[{"kind": "error", "indices": [0]}])
        cache = ResultCache(tmp_path)
        runner = SweepRunner(
            cache=cache, max_attempts=1, raise_on_failure=False, **FAST
        )
        outcomes = runner.run(_points())
        assert outcomes[0].status == "failed"
        assert not cache.path_for(outcomes[0].point.scenario_hash).exists()
        assert len(cache) == 3  # only the healthy points were stored


class TestSupervisedRecovery:
    def test_crash_detected_and_retried(self, monkeypatch):
        _set_plan(
            monkeypatch,
            faults=[{"kind": "crash", "indices": [0], "attempts": [1], "exit_code": 21}],
        )
        runner = SweepRunner(workers=2, timeout_s=60, **FAST)
        outcomes = runner.run(_points())
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert outcomes[0].attempts == 2
        assert runner.fault_stats.crashes == 1
        assert runner.fault_stats.retries == 1

    def test_poison_crash_quarantined_with_exitcode(self, monkeypatch):
        _set_plan(
            monkeypatch,
            faults=[{"kind": "crash", "indices": [3], "exit_code": 21}],
        )
        runner = SweepRunner(
            workers=2, timeout_s=60, max_attempts=2, raise_on_failure=False, **FAST
        )
        outcomes = runner.run(_points())
        assert [o.status for o in outcomes] == ["ok", "ok", "ok", "failed"]
        failure = outcomes[3].failure
        assert failure.kind == "crash"
        assert failure.exitcode == 21
        assert failure.history == ["crash", "crash"]
        assert runner.fault_stats.crashes == 2
        assert runner.fault_stats.quarantined == 1

    def test_hang_preempted_by_timeout(self, monkeypatch):
        _set_plan(
            monkeypatch,
            faults=[{"kind": "hang", "indices": [1], "attempts": [1], "hang_s": 60}],
        )
        runner = SweepRunner(workers=2, timeout_s=0.5, **FAST)
        outcomes = runner.run(_points())
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert outcomes[1].attempts == 2
        assert runner.fault_stats.timeouts == 1

    def test_poison_hang_quarantined_as_timeout(self, monkeypatch):
        # degrade=False: with the ladder on, a timeout would escalate through
        # every rung before quarantining (covered in test_resource_governor);
        # this test pins the classic retry-then-quarantine path.
        _set_plan(
            monkeypatch, faults=[{"kind": "hang", "indices": [0], "hang_s": 60}]
        )
        runner = SweepRunner(
            workers=1, timeout_s=0.3, max_attempts=2, raise_on_failure=False,
            degrade=False, **FAST
        )
        outcomes = runner.run(_points((1, 2)))
        assert outcomes[0].status == "failed"
        assert outcomes[0].failure.kind == "timeout"
        assert "0.3" in outcomes[0].failure.message
        assert outcomes[1].status == "ok"  # healthy point still ran
        assert runner.fault_stats.timeouts == 2

    def test_transient_error_in_worker(self, monkeypatch):
        _set_plan(
            monkeypatch,
            faults=[{"kind": "error", "indices": [2], "attempts": [1]}],
        )
        runner = SweepRunner(workers=2, timeout_s=60, **FAST)
        outcomes = runner.run(_points())
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert runner.fault_stats.errors == 1

    def test_timeout_alone_forces_supervision(self, monkeypatch):
        # workers=0 but a timeout: must still preempt the hang, which the
        # in-process serial path cannot do.
        _set_plan(
            monkeypatch,
            faults=[{"kind": "hang", "indices": [0], "attempts": [1], "hang_s": 60}],
        )
        runner = SweepRunner(workers=0, timeout_s=0.4, **FAST)
        outcomes = runner.run(_points((1, 2)))
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert runner.fault_stats.timeouts == 1

    def test_identical_plans_give_identical_histories(self, monkeypatch):
        faults = [
            {"kind": "error", "rate": 0.5, "attempts": [1]},
            {"kind": "crash", "indices": [1], "attempts": [1]},
        ]
        histories = []
        for _ in range(2):
            _set_plan(monkeypatch, seed=11, faults=faults)
            runner = SweepRunner(
                workers=2, timeout_s=60, raise_on_failure=False, **FAST
            )
            outcomes = runner.run(_points((1, 2, 3, 4, 5, 6)))
            histories.append(
                [
                    (o.status, o.attempts, o.failure.history if o.failure else None)
                    for o in outcomes
                ]
            )
        assert histories[0] == histories[1]

    def test_fault_stats_reset_between_runs(self, monkeypatch):
        _set_plan(
            monkeypatch, faults=[{"kind": "error", "indices": [0], "attempts": [1]}]
        )
        runner = SweepRunner(**FAST)
        runner.run(_points((1, 2)))
        assert runner.fault_stats.errors == 1
        monkeypatch.delenv("REPRO_FAULTS")
        runner.run(_points((3, 4)))
        assert runner.fault_stats == FaultStats()


class TestTornWrites:
    def test_torn_write_then_checksum_quarantine(self, monkeypatch, tmp_path):
        points = _points()
        victim = points[2].scenario_hash
        _set_plan(
            monkeypatch,
            faults=[{"kind": "torn_write", "hash_prefix": victim[:12]}],
        )
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache, **FAST).run(points)
        assert cache.stats.writes == 4  # the torn write still counts
        monkeypatch.delenv("REPRO_FAULTS")

        fresh = ResultCache(tmp_path)
        runner = SweepRunner(cache=fresh, **FAST)
        outcomes = runner.run(points)
        # The torn entry read as corruption (quarantined, re-executed), the
        # other three as ordinary hits.
        assert fresh.stats.corruptions == 1
        assert fresh.stats.hits == 3
        assert [o.cached for o in outcomes] == [True, True, False, True]
        quarantined = list(fresh.quarantine_dir().glob("*.json"))
        assert [p.name for p in quarantined] == [f"{victim}.json"]
        # Re-execution healed the cache: a third read is all hits.
        healed = ResultCache(tmp_path)
        assert all(o.cached for o in SweepRunner(cache=healed).run(points))
        assert healed.stats.corruptions == 0

    def test_torn_write_by_target(self, monkeypatch, tmp_path):
        _set_plan(monkeypatch, faults=[{"kind": "torn_write", "target": ECHO}])
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache, **FAST).run(_points((1, 2)))
        monkeypatch.delenv("REPRO_FAULTS")
        fresh = ResultCache(tmp_path)
        SweepRunner(cache=fresh, **FAST).run(_points((1, 2)))
        assert fresh.stats.corruptions == 2


class TestResumeJournal:
    def test_journaled_points_skip_execution_and_cache(self, tmp_path):
        points = _points()
        completed = {points[0].scenario_hash: {"x": 101}}
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache, completed=completed, **FAST)
        outcomes = runner.run(points)
        assert outcomes[0].status == "journaled"
        assert outcomes[0].cached
        assert outcomes[0].value == {"x": 101}  # journal value wins
        assert runner.fault_stats.journal_skips == 1
        # The journaled point never touched the cache (no lookup, no store).
        assert not cache.path_for(points[0].scenario_hash).exists()
        assert cache.stats.hits == 0

    def test_journal_makes_poison_run_resumable(self, monkeypatch):
        points = _points()
        _set_plan(monkeypatch, faults=[{"kind": "error", "indices": [3]}])
        first = SweepRunner(max_attempts=1, raise_on_failure=False, **FAST)
        outcomes = first.run(points)
        completed = {
            o.point.scenario_hash: o.value for o in outcomes if o.status == "ok"
        }
        monkeypatch.delenv("REPRO_FAULTS")
        second = SweepRunner(completed=completed, **FAST)
        resumed = second.run(points)
        assert [o.status for o in resumed] == [
            "journaled", "journaled", "journaled", "ok",
        ]
        assert second.fault_stats.journal_skips == 3
