"""Resource governor tests: memory budgets and the degradation ladder.

Covers the PR-10 vertical slice: ``ExecutionProfile`` planners and ladder
rungs, ``RLIMIT_AS`` budget helpers, real in-worker budget enforcement
(``MemoryError`` classified ``oom``), signal-killed workers classified
``signal`` (not ``crash``) and escalating the ladder, chaos ``oom``
injection, ladder determinism (same seed + same faults -> same rung
sequence and bit-identical degraded values), degraded values staying out
of the result cache, profile-aware kernel budgets, and the bounded cache
quarantine directory.
"""

import json
import os
import sys

import pytest

from repro.engine.cache import ResultCache
from repro.engine.runner import SweepRunner
from repro.engine.spec import ScenarioPoint, ScenarioSpec, expand
from repro.resources import (
    MAX_DEGRADATION_LEVEL,
    PROFILE_LADDER,
    ExecutionProfile,
    activate_profile,
    active_profile,
    apply_memory_budget,
    current_address_space_bytes,
    memory_budget_bytes,
    profile_for_level,
)

ECHO = "oracles.targets:echo_point"
PROFILE = "oracles.targets:profile_point"
HUNGRY = "oracles.targets:hungry_point"

#: Fast retry schedule so fault tests don't sleep their way to minutes.
FAST = {"backoff_base_s": 0.01, "backoff_cap_s": 0.05}

linux_only = pytest.mark.skipif(
    sys.platform != "linux", reason="RLIMIT_AS budgets need /proc and Linux rlimits"
)


def _set_plan(monkeypatch, seed=0, faults=()):
    monkeypatch.setenv(
        "REPRO_FAULTS", json.dumps({"seed": seed, "faults": list(faults)})
    )


def _profile_points(xs=(1, 2, 3)):
    return expand(
        [ScenarioSpec.grid(PROFILE, seed=0, seed_strategy="derived", x=list(xs))]
    )


class TestExecutionProfile:
    def test_ladder_shape(self):
        assert len(PROFILE_LADDER) == MAX_DEGRADATION_LEVEL + 1
        assert PROFILE_LADDER[0] == ExecutionProfile()
        levels = [p.level for p in PROFILE_LADDER]
        assert levels == list(range(len(PROFILE_LADDER)))
        # Monotone: every knob only gets cheaper down the ladder.
        for shallow, deep in zip(PROFILE_LADDER, PROFILE_LADDER[1:]):
            assert deep.memory_scale <= shallow.memory_scale
            assert deep.trial_scale <= shallow.trial_scale
            assert deep.sampled >= shallow.sampled

    def test_profile_for_level_clamps(self):
        assert profile_for_level(-5) == PROFILE_LADDER[0]
        assert profile_for_level(0) == PROFILE_LADDER[0]
        assert profile_for_level(99) == PROFILE_LADDER[-1]

    def test_scaled_floors_at_one(self):
        assert PROFILE_LADDER[1].scaled(100) == 50
        assert PROFILE_LADDER[1].scaled(1) == 1
        assert PROFILE_LADDER[0].scaled(100) == 100

    def test_plan_sources_exact_stays_exact_at_rung0(self):
        assert PROFILE_LADDER[0].plan_sources(1000, None) is None
        assert PROFILE_LADDER[1].plan_sources(1000, None) is None

    def test_plan_sources_sampled_demotes_exact(self):
        assert PROFILE_LADDER[2].plan_sources(1000, None) == 250
        # rung 3 additionally halves the demoted sample
        assert PROFILE_LADDER[3].plan_sources(1000, None) == 125

    def test_plan_sources_never_exceeds_request(self):
        assert PROFILE_LADDER[2].plan_sources(1000, 64) == 64
        assert PROFILE_LADDER[3].plan_sources(1000, 64) == 32

    def test_plan_sources_floors_tiny_samples(self):
        # trial_scale never pushes a sample below min(16, requested)
        assert PROFILE_LADDER[3].plan_sources(1000, 20) == 16
        assert PROFILE_LADDER[3].plan_sources(1000, 8) == 8

    def test_plan_sources_tiny_graph_clamps_to_n_minus_one(self):
        # A sampled source count can never reach all-sources territory.
        assert PROFILE_LADDER[2].plan_sources(2, None) == 1

    def test_plan_trials(self):
        assert PROFILE_LADDER[0].plan_trials(10) == 10
        assert PROFILE_LADDER[3].plan_trials(10) == 5
        assert PROFILE_LADDER[3].plan_trials(1) == 1

    def test_activation_restores_previous(self):
        assert active_profile().level == 0
        with activate_profile(PROFILE_LADDER[2]):
            assert active_profile().level == 2
            with activate_profile(None):
                assert active_profile().level == 0
            assert active_profile().level == 2
        assert active_profile().level == 0

    def test_as_dict_round_trips(self):
        payload = PROFILE_LADDER[3].as_dict()
        assert payload == {
            "level": 3,
            "memory_scale": 0.5,
            "sampled": True,
            "trial_scale": 0.5,
        }
        assert ExecutionProfile(**payload) == PROFILE_LADDER[3]


class TestMemoryBudgetHelpers:
    @linux_only
    def test_budget_sits_above_baseline(self):
        baseline = current_address_space_bytes()
        assert baseline is not None and baseline > 0
        budget = memory_budget_bytes(64)
        assert budget is not None
        assert budget > baseline + 64 * 1024 * 1024

    @linux_only
    def test_apply_and_restore_round_trip(self):
        import resource

        before = resource.getrlimit(resource.RLIMIT_AS)
        restore = apply_memory_budget(4096)
        assert restore is not None
        capped = resource.getrlimit(resource.RLIMIT_AS)
        assert capped[0] != resource.RLIM_INFINITY
        restore()
        assert resource.getrlimit(resource.RLIMIT_AS) == before


class TestOomClassification:
    @linux_only
    def test_budget_overrun_is_oom_then_degrades_and_fits(self):
        # hungry_point wants 96 MB at rung 0 and half that at rung 1; a
        # 48 MB budget forces exactly one oom then a degraded success.
        runner = SweepRunner(workers=1, memory_mb=48, **FAST)
        points = [ScenarioPoint(HUNGRY, {"x": 1, "mb": 96.0})]
        outcome = runner.run(points)[0]
        assert outcome.status == "ok"
        assert outcome.history == ["oom"]
        assert outcome.degradation_level == 1
        assert outcome.profile == PROFILE_LADDER[1].as_dict()
        assert outcome.value["level"] == 1
        assert runner.fault_stats.ooms == 1
        assert runner.fault_stats.degraded == 1
        assert runner.fault_stats.quarantined == 0

    def test_memory_budget_alone_forces_supervision(self, monkeypatch):
        # workers=0 but a budget: the point must run in a supervised worker
        # (an in-process rlimit would cap the parent for good).
        runner = SweepRunner(workers=0, memory_mb=4096, **FAST)
        outcome = runner.run([ScenarioPoint(ECHO, {"x": 5})])[0]
        assert outcome.status == "ok"
        assert outcome.worker != os.getpid()

    def test_chaos_oom_without_cap_synthesizes(self, monkeypatch):
        # Serial in-process path, no rlimit: the chaos rule must not fight
        # the real OOM killer; it raises a synthesized MemoryError that the
        # runner still classifies as oom and degrades on.
        _set_plan(monkeypatch, faults=[{"kind": "oom", "attempts": [1]}])
        runner = SweepRunner(**FAST)
        outcome = runner.run(_profile_points((1,)))[0]
        assert outcome.status == "ok"
        assert outcome.history == ["oom"]
        assert outcome.degradation_level == 1
        assert runner.fault_stats.ooms == 1


class TestSignalClassification:
    def test_sigkilled_worker_classified_signal_not_crash(self, monkeypatch):
        # Simulated OOM-killer: the worker dies by SIGKILL, detected via its
        # sentinel, classified `signal`, and the ladder escalates.
        _set_plan(
            monkeypatch,
            faults=[{"kind": "crash", "signum": 9, "attempts": [1]}],
        )
        runner = SweepRunner(workers=1, timeout_s=60, **FAST)
        outcome = runner.run(_profile_points((1,)))[0]
        assert outcome.status == "ok"
        assert outcome.history == ["signal"]
        assert outcome.degradation_level == 1
        assert outcome.value["level"] == 1
        assert runner.fault_stats.signals == 1
        assert runner.fault_stats.crashes == 0
        assert runner.fault_stats.degraded == 1

    def test_exit_crash_still_classified_crash(self, monkeypatch):
        _set_plan(
            monkeypatch,
            faults=[{"kind": "crash", "exit_code": 21, "attempts": [1]}],
        )
        runner = SweepRunner(workers=1, timeout_s=60, **FAST)
        outcome = runner.run(_profile_points((1,)))[0]
        assert outcome.status == "ok"
        assert outcome.history == ["crash"]
        # Plain crashes retry identically -- no ladder escalation.
        assert outcome.degradation_level == 0
        assert runner.fault_stats.crashes == 1
        assert runner.fault_stats.signals == 0
        assert runner.fault_stats.degraded == 0

    def test_signal_exitcode_recorded_negative(self, monkeypatch):
        # A poison signal-killer (every attempt, degrade off) quarantines
        # with kind `signal` and the signal number in the exitcode.
        _set_plan(monkeypatch, faults=[{"kind": "crash", "signum": 9}])
        runner = SweepRunner(
            workers=1, timeout_s=60, max_attempts=2, degrade=False,
            raise_on_failure=False, **FAST
        )
        outcome = runner.run(_profile_points((1,)))[0]
        assert outcome.status == "failed"
        assert outcome.failure.kind == "signal"
        assert outcome.failure.exitcode == -9
        assert outcome.failure.history == ["signal", "signal"]
        assert "signal 9" in outcome.failure.message


class TestDegradationLadder:
    def test_ladder_walks_one_rung_per_resource_fault(self, monkeypatch):
        # oom on attempts 1 and 2: rung 0 -> 1 -> 2; the survivor reports
        # rung 2 with sampled=True and the full failure history.
        _set_plan(monkeypatch, faults=[{"kind": "oom", "attempts": [1, 2]}])
        runner = SweepRunner(**FAST)
        outcome = runner.run(_profile_points((1,)))[0]
        assert outcome.history == ["oom", "oom"]
        assert outcome.degradation_level == 2
        assert outcome.value["sampled"] is True
        assert outcome.value["planned_sources"] == 250

    def test_ladder_grants_attempts_beyond_max(self, monkeypatch):
        # max_attempts=1 would quarantine on the first failure, but each
        # ladder escalation grants one extra attempt -- bounded by the
        # ladder depth, after which the point genuinely quarantines.
        _set_plan(monkeypatch, faults=[{"kind": "oom"}])
        runner = SweepRunner(max_attempts=1, raise_on_failure=False, **FAST)
        outcome = runner.run(_profile_points((1,)))[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1 + MAX_DEGRADATION_LEVEL
        assert outcome.failure.history == ["oom"] * (1 + MAX_DEGRADATION_LEVEL)
        assert outcome.degradation_level == MAX_DEGRADATION_LEVEL
        assert runner.fault_stats.quarantined == 1

    def test_plain_errors_never_escalate(self, monkeypatch):
        _set_plan(monkeypatch, faults=[{"kind": "error"}])
        runner = SweepRunner(max_attempts=2, raise_on_failure=False, **FAST)
        outcome = runner.run(_profile_points((1,)))[0]
        assert outcome.status == "failed"
        assert outcome.degradation_level == 0
        assert outcome.attempts == 2
        assert runner.fault_stats.degraded == 0

    def test_no_degrade_quarantines_resource_faults(self, monkeypatch):
        _set_plan(monkeypatch, faults=[{"kind": "oom"}])
        runner = SweepRunner(
            max_attempts=2, degrade=False, raise_on_failure=False, **FAST
        )
        outcome = runner.run(_profile_points((1,)))[0]
        assert outcome.status == "failed"
        assert outcome.degradation_level == 0
        assert outcome.failure.kind == "oom"
        assert runner.fault_stats.degraded == 0

    def test_ladder_determinism(self, monkeypatch):
        # Same seed + same faults -> same rung sequence and bit-identical
        # degraded values, across repeated runs and worker counts.
        plan = [{"kind": "oom", "rate": 0.7, "attempts": [1, 2]}]

        def run_once(workers):
            _set_plan(monkeypatch, seed=13, faults=plan)
            runner = SweepRunner(workers=workers, timeout_s=60, **FAST)
            outcomes = runner.run(_profile_points((1, 2, 3, 4)))
            return [
                (o.degradation_level, tuple(o.history), json.dumps(o.value, sort_keys=True))
                for o in outcomes
            ]

        serial_a = run_once(0)
        serial_b = run_once(0)
        pooled = run_once(2)
        assert serial_a == serial_b == pooled
        # The 0.7 rate over 4 points actually exercises both regimes.
        levels = {level for level, _, _ in serial_a}
        assert 0 in levels or 1 in levels

    def test_degraded_values_not_cached(self, tmp_path, monkeypatch):
        _set_plan(monkeypatch, faults=[{"kind": "oom", "attempts": [1]}])
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache, **FAST)
        points = _profile_points((1,))
        degraded = runner.run(points)[0]
        assert degraded.degradation_level == 1
        assert cache.stats.writes == 0
        assert points[0] not in cache
        # Fault-free re-run computes fresh at full fidelity and caches it.
        monkeypatch.delenv("REPRO_FAULTS")
        clean = SweepRunner(cache=cache, **FAST).run(points)[0]
        assert clean.cached is False
        assert clean.value["level"] == 0
        assert cache.stats.writes == 1

    def test_followers_inherit_degradation(self, monkeypatch):
        _set_plan(monkeypatch, faults=[{"kind": "oom", "attempts": [1]}])
        duplicated = _profile_points((1,)) * 2
        runner = SweepRunner(**FAST)
        primary, follower = runner.run(duplicated)
        assert follower.cached is True
        assert follower.degradation_level == primary.degradation_level == 1
        assert follower.history == primary.history == ["oom"]
        assert follower.value == primary.value


class TestProfileAwareKernels:
    def test_bfs_scratch_budget_scales(self):
        from repro.graphs.csr import default_bfs_scratch_bytes

        full = default_bfs_scratch_bytes()
        with activate_profile(PROFILE_LADDER[1]):
            assert default_bfs_scratch_bytes() == full // 2
        assert default_bfs_scratch_bytes() == full

    def test_distance_memo_budget_scales(self):
        import networkx as nx

        from repro.graphs.csr import DEFAULT_DIST_MEMO_BYTES, csr_graph, distance_memo_stats
        from repro.memo import clear_memos

        csr = csr_graph(nx.random_regular_graph(4, 100, seed=3))  # 400-byte rows
        ten_rows = 4000 / DEFAULT_DIST_MEMO_BYTES
        for memory_scale, rows in ((ten_rows, 10), (ten_rows / 2, 5)):
            clear_memos()
            with activate_profile(ExecutionProfile(memory_scale=memory_scale)):
                for source in range(20):
                    csr.distance_row(source)
            assert distance_memo_stats()["entries"] == rows
        clear_memos()

    def test_every_memo_bound_scales(self):
        from repro.memo import Memo

        memo = Memo("test.rung1", max_entries=4, budget=1000, cost=len)
        with activate_profile(PROFILE_LADDER[1]):  # halves every memo bound
            for key in range(4):
                memo.put(key, b"x" * 100)
            assert len(memo) == 2
            memo.put(4, b"x" * 450)  # 100 + 450 bytes > the halved 500
            assert len(memo) == 1
        memo.put(5, b"x" * 450)
        assert len(memo) == 2

    def test_sampled_estimator_honors_profile(self):
        import networkx as nx

        from repro.graphs.csr import csr_graph
        from repro.graphs.sampling import sampled_path_length_stats

        csr = csr_graph(nx.random_regular_graph(4, 400, seed=3))
        exact = sampled_path_length_stats(csr)
        assert exact.exact and exact.num_sources == 400
        with activate_profile(PROFILE_LADDER[2]):
            degraded = sampled_path_length_stats(csr)
        assert not degraded.exact
        assert degraded.num_sources == 100
        # Deterministic: same profile, same seed, same estimate.
        with activate_profile(PROFILE_LADDER[2]):
            again = sampled_path_length_stats(csr)
        assert again == degraded

    def test_bisection_trials_honor_profile(self):
        import networkx as nx

        from repro.graphs.csr import csr_graph
        from repro.graphs.sampling import sampled_bisection_stats

        csr = csr_graph(nx.random_regular_graph(4, 60, seed=3))
        with activate_profile(PROFILE_LADDER[3]):
            stats = sampled_bisection_stats(csr, trials=8, seed=1)
        assert stats.trials == 4

    def test_exact_path_length_switches_to_sampled(self):
        import networkx as nx

        from repro.graphs.properties import average_path_length
        from repro.graphs.sampling import sampled_path_length_stats
        from repro.resources import PROFILE_SAMPLE_SEED
        from repro.topologies.base import Topology

        graph = nx.random_regular_graph(4, 400, seed=5)
        topology = Topology(graph, {node: 4 for node in graph})
        exact = topology.switch_average_path_length()
        with activate_profile(PROFILE_LADDER[2]):
            degraded = topology.switch_average_path_length()
            # The metric kernel itself stays exact under every profile.
            assert average_path_length(topology.csr()) == exact
            expected = sampled_path_length_stats(
                topology.csr(),
                num_sources=PROFILE_LADDER[2].plan_sources(400, None),
                seed=PROFILE_SAMPLE_SEED,
            ).mean
        assert degraded == expected
        assert degraded != exact  # a genuine estimate...
        assert abs(degraded - exact) < 0.25  # ...but close

    def test_tiny_graph_stays_exact_under_sampled_profile(self):
        import networkx as nx

        from repro.topologies.base import Topology

        graph = nx.cycle_graph(4)
        topology = Topology(graph, {node: 2 for node in graph})
        exact = topology.switch_average_path_length()
        with activate_profile(PROFILE_LADDER[2]):
            assert topology.switch_average_path_length() == exact


class TestQuarantineBudget:
    def _corrupt_entries(self, cache, n):
        for i in range(n):
            point = ScenarioPoint(ECHO, {"x": i})
            path = cache.path_for(point.scenario_hash)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{not json", encoding="ascii")
            hit, _ = cache.fetch(point)
            assert not hit

    def test_quarantine_evicts_oldest_beyond_budget(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", quarantine_budget=3)
        self._corrupt_entries(cache, 5)
        kept = list(cache.quarantine_dir().glob("*.json"))
        assert len(kept) == 3
        assert cache.stats.corruptions == 5
        assert cache.stats.quarantine_evictions == 2
        assert "quarantine evictions" in str(cache.stats)
        assert cache.stats.as_dict()["quarantine_evictions"] == 2

    def test_unbounded_when_budget_nonpositive(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", quarantine_budget=0)
        self._corrupt_entries(cache, 5)
        assert len(list(cache.quarantine_dir().glob("*.json"))) == 5
        assert cache.stats.quarantine_evictions == 0


class TestSurfaces:
    def test_manifest_records_degradation(self, tmp_path, monkeypatch):
        from repro.telemetry.manifest import RunRecorder, load_manifest

        _set_plan(monkeypatch, faults=[{"kind": "oom", "attempts": [1]}])
        recorder = RunRecorder("fig99", runs_root=tmp_path)
        runner = SweepRunner(progress=recorder.observe, **FAST)
        runner.run(_profile_points((1,)))
        path = recorder.finalize(
            runs_root=tmp_path, faults=runner.fault_stats.as_dict()
        )
        loaded = load_manifest(path)
        assert loaded.degraded_count() == 1
        record = loaded.points[0]
        assert record.degradation_level == 1
        assert record.profile == PROFILE_LADDER[1].as_dict()
        assert record.history == ["oom"]
        assert loaded.failures["ooms"] == 1
        assert loaded.failures["degraded"] == 1
        # The journal line carries the same audit trail.
        journal_lines = [
            json.loads(line)
            for line in open(loaded.journal, encoding="ascii")
            if line.strip()
        ]
        assert journal_lines[0]["degradation_level"] == 1
        assert journal_lines[0]["history"] == ["oom"]
        assert journal_lines[0]["profile"]["level"] == 1

    def test_stats_report_surfaces_degraded(self):
        from repro.telemetry.manifest import PointRecord, RunRecord
        from repro.telemetry.report import (
            experiment_rows,
            fault_summary,
            render_experiment_table,
            render_fault_summary,
        )

        record = RunRecord(
            run_id="1-x-x",
            sweep_id="fig05-scale",
            failures={
                "retries": 2, "timeouts": 0, "crashes": 0, "ooms": 1,
                "signals": 1, "errors": 0, "degraded": 2, "quarantined": 0,
                "journal_skips": 3,
            },
            points=[
                PointRecord("a" * 64, PROFILE, False, 1.0, degradation_level=2),
                PointRecord("b" * 64, PROFILE, False, 1.0),
            ],
        )
        rows = experiment_rows([record])
        assert rows[0]["degraded"] == 1
        table = render_experiment_table(rows)
        assert "deg" in table.splitlines()[0]
        totals = fault_summary([record])
        assert totals["ooms"] == 1
        assert totals["signals"] == 1
        assert totals["degraded"] == 2
        line = render_fault_summary(totals)
        assert "1 ooms" in line
        assert "1 signals" in line
        assert "2 degraded" in line
        assert "3 journal skips" in line

    def test_fault_stats_summary_line_lists_everything(self):
        from repro.engine.runner import FaultStats

        stats = FaultStats(
            retries=1, timeouts=2, crashes=3, ooms=4, signals=5, errors=6,
            degraded=7, quarantined=8, journal_skips=9,
        )
        text = str(stats)
        for fragment in (
            "1 retries", "2 timeouts", "3 crashes", "4 ooms", "5 signals",
            "6 errors", "7 degraded", "8 quarantined", "9 journal skips",
        ):
            assert fragment in text

    def test_cli_memory_mb_resolution(self, monkeypatch, tmp_path, capsys):
        # --memory-mb reaches the runner and still completes a tiny sweep.
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        code = cli.main(
            ["sweep", "run", "fig01", "--scale", "small",
             "--memory-mb", "4096", "--workers", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig01" in out
