"""Tests for the instrumentation layer (repro.telemetry).

Covers the tracer's span nesting and disabled-mode no-op contract, the
JSONL event sink, run-manifest round-trips through the ``repro stats``
CLI, cache counters under the sharded multiprocessing runner, and -- the
load-bearing guarantee -- that instrumented kernels stay bit-identical to
their parity oracles (``tests/oracles``) while tracing is active.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from repro import telemetry
from repro.telemetry import tracer as tracer_module
from repro.telemetry.log import configure as configure_logging
from repro.telemetry.log import get_logger, verbosity_to_level
from repro.telemetry.manifest import (
    PointRecord,
    RunRecord,
    RunRecorder,
    load_manifest,
    load_manifests,
    write_manifest,
)
from repro.telemetry.report import (
    experiment_rows,
    load_events,
    render_flame,
    render_stats,
    span_coverage,
)
from repro.telemetry.tracer import (
    NULL_SPAN,
    count,
    disable,
    enable,
    get_tracer,
    is_enabled,
    trace,
)
from repro.utils.stats import percentile


@pytest.fixture(autouse=True)
def _pristine_tracer():
    """Every test starts and ends with tracing disabled."""
    disable()
    yield
    disable()


class TestSpans:
    def test_disabled_trace_is_shared_noop(self):
        assert not is_enabled()
        span = trace("anything", links=3)
        assert span is NULL_SPAN
        with span as inner:
            inner.add(more=1)
        count("ignored", 5)  # must not raise, must not record anything
        assert get_tracer() is None

    def test_nesting_records_parent_depth_and_self_time(self):
        tracer = enable()
        with trace("outer", a=1):
            with trace("inner"):
                pass
        events = list(tracer.events)
        assert [e["name"] for e in events] == ["inner", "outer"]
        inner, outer = events
        assert outer["depth"] == 0 and outer["parent"] is None
        assert inner["depth"] == 1 and inner["parent"] == outer["i"]
        assert outer["counters"] == {"a": 1}
        # Self time excludes the child's duration.
        assert 0.0 <= outer["self_s"] <= outer["dur_s"]
        assert outer["dur_s"] >= inner["dur_s"]

    def test_add_accumulates_numeric_counters(self):
        tracer = enable()
        with trace("k", n=2) as span:
            span.add(n=3, label="x")
        (event,) = tracer.events
        assert event["counters"] == {"n": 5, "label": "x"}

    def test_count_credits_innermost_span(self):
        tracer = enable()
        with trace("outer"):
            with trace("inner"):
                count("spurs", 7)
                count("spurs", 2)
        inner = next(e for e in tracer.events if e["name"] == "inner")
        outer = next(e for e in tracer.events if e["name"] == "outer")
        assert inner["counters"] == {"spurs": 9}
        assert outer["counters"] == {}

    def test_count_without_span_lands_on_root(self):
        tracer = enable()
        count("orphan", 1)
        assert tracer.root_counters == {"orphan": 1}

    def test_exception_inside_span_still_pops_it(self):
        tracer = enable()
        with pytest.raises(RuntimeError):
            with trace("boom"):
                raise RuntimeError("x")
        assert tracer._stack == []
        assert [e["name"] for e in tracer.events] == ["boom"]

    def test_ring_buffer_evicts_oldest(self):
        tracer = enable(ring_size=4)
        for i in range(10):
            with trace(f"s{i}"):
                pass
        assert [e["name"] for e in tracer.events] == ["s6", "s7", "s8", "s9"]

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        enable(jsonl_path=str(path))
        with trace("a", n=1):
            with trace("b"):
                pass
        disable()  # closes the sink
        events = load_events(path)
        assert [e["name"] for e in events] == ["b", "a"]
        assert all(e["pid"] == os.getpid() for e in events)

    def test_env_var_activates_tracing_at_import(self, tmp_path):
        env = dict(os.environ, REPRO_TRACE="1")
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.telemetry as t; print(t.is_enabled())"],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.stdout.strip() == "True", proc.stderr


class TestLogging:
    def test_verbosity_mapping(self):
        import logging

        assert verbosity_to_level(0) == logging.WARNING
        assert verbosity_to_level(1) == logging.INFO
        assert verbosity_to_level(2) == logging.DEBUG
        assert verbosity_to_level(5) == logging.DEBUG

    def test_configure_is_idempotent(self):
        root = configure_logging(0)
        before = list(root.handlers)
        configure_logging(1)
        configure_logging(2)
        assert list(get_logger().handlers) == before

    def test_loggers_live_under_repro_hierarchy(self):
        assert get_logger("sweep.fig01").name == "repro.sweep.fig01"
        assert get_logger().name == "repro"


class TestManifest:
    def _record(self):
        record = RunRecord(run_id="1-t-abc", sweep_id="fig01", seed=3)
        record.points = [
            PointRecord("a" * 64, "t", cached=False, duration_s=0.5, worker=11),
            PointRecord("b" * 64, "t", cached=True, duration_s=0.001),
        ]
        return record

    def test_write_and_load_round_trip(self, tmp_path):
        record = self._record()
        path = write_manifest(record, runs_root=tmp_path)
        assert path.name == "run-1-t-abc.json"
        loaded = load_manifest(path)
        assert loaded == record

    def test_load_manifests_skips_foreign_files(self, tmp_path):
        write_manifest(self._record(), runs_root=tmp_path)
        (tmp_path / "run-junk.json").write_text("{not json")
        (tmp_path / "run-wrong.json").write_text(json.dumps({"version": 99}))
        records = load_manifests(tmp_path)
        assert [r.run_id for r in records] == ["1-t-abc"]

    def test_derived_metrics(self):
        record = self._record()
        assert record.executed_durations() == [0.5]
        assert record.cached_count() == 1
        assert record.max_peak_rss_kb() == 0

    def test_recorder_collects_outcomes_and_cache_stats(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.runner import SweepRunner
        from repro.engine.spec import ScenarioSpec

        spec = ScenarioSpec.grid(
            "repro.experiments.fig02a_bisection:jellyfish_curve_point",
            num_switches=720,
            ports=24,
            servers=[720, 1440],
        )
        cache = ResultCache(tmp_path / "cache")
        recorder = RunRecorder("fig02a", seed=0, command=["test"], workers=0)
        runner = SweepRunner(cache=cache, progress=recorder.observe)
        runner.run(spec.points())
        path = recorder.finalize(cache=cache, runs_root=tmp_path / "runs")
        loaded = load_manifest(path)
        assert len(loaded.points) == 2
        assert all(not p.cached for p in loaded.points)
        assert all(p.worker == os.getpid() for p in loaded.points)
        assert all(p.peak_rss_kb > 0 for p in loaded.points)
        assert loaded.cache["misses"] == 2 and loaded.cache["writes"] == 2
        assert loaded.duration_s > 0


class TestCachedPointTiming:
    def test_cached_points_report_lookup_time(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.runner import SweepRunner
        from repro.engine.spec import ScenarioSpec

        spec = ScenarioSpec.grid(
            "repro.experiments.fig02a_bisection:jellyfish_curve_point",
            num_switches=720,
            ports=24,
            servers=[720],
        )
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run(spec.points())
        (outcome,) = SweepRunner(cache=cache).run(spec.points())
        assert outcome.cached
        assert outcome.duration_s > 0.0  # actual lookup time, not a flat 0.0
        assert cache.stats.lookup_s > 0.0
        assert cache.stats.store_s > 0.0

    def test_cache_clear_counts_evictions(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.runner import SweepRunner
        from repro.engine.spec import ScenarioSpec

        spec = ScenarioSpec.grid(
            "repro.experiments.fig02a_bisection:jellyfish_curve_point",
            num_switches=720,
            ports=24,
            servers=[720],
        )
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run(spec.points())
        assert cache.clear() == 1
        assert cache.stats.evictions == 1
        assert "1 evictions" in str(cache.stats)


class TestShardedRunner:
    def test_cache_counters_and_worker_pids_with_pool(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.runner import SweepRunner
        from repro.engine.spec import ScenarioSpec

        spec = ScenarioSpec.grid(
            "repro.experiments.fig02a_bisection:jellyfish_curve_point",
            num_switches=720,
            ports=24,
            servers=[720, 1440, 2160],
        )
        cache = ResultCache(tmp_path)
        cold = SweepRunner(workers=2, cache=cache).run(spec.points())
        assert cache.stats.misses == 3 and cache.stats.writes == 3
        executed = [o for o in cold if not o.cached]
        assert executed and all(o.worker not in (0, os.getpid()) for o in executed)
        assert all(o.peak_rss_kb > 0 for o in executed)

        warm_cache = ResultCache(tmp_path)
        warm = SweepRunner(workers=2, cache=warm_cache).run(spec.points())
        assert warm_cache.stats.hits == 3 and warm_cache.stats.misses == 0
        assert all(o.cached for o in warm)
        assert [o.value for o in warm] == [o.value for o in cold]


class TestInstrumentedParity:
    """Tracing ON must not perturb kernel results (bit-identical parity)."""

    def test_maxmin_matches_reference_with_tracing_enabled(self):
        from oracles.flow import max_min_fair_allocation_reference
        from repro.flow.maxmin import FlowSpec, max_min_fair_allocation

        flows = [
            FlowSpec("f1", paths=[(0, 1, 2), (0, 3, 2)], demand=1.0),
            FlowSpec("f2", paths=[(2, 1, 0)], demand=0.7),
            FlowSpec("f3", paths=[(1, 2)], demand=2.0, subflow_caps=[0.4]),
        ]
        capacity = {(0, 1): 1.0, (1, 2): 0.5, (0, 3): 0.25, (3, 2): 1.0, (2, 1): 1.0, (1, 0): 1.0}
        reference = max_min_fair_allocation_reference(flows, capacity)
        tracer = enable()
        traced = max_min_fair_allocation(flows, capacity)
        assert traced.flow_rates == reference.flow_rates
        assert traced.subflow_rates == reference.subflow_rates
        assert traced.link_loads == reference.link_loads
        (event,) = [e for e in tracer.events if e["name"] == "maxmin.fill"]
        assert event["counters"]["saturation_rounds"] >= 1

    def test_aimd_matches_reference_with_tracing_enabled(self, small_jellyfish):
        from oracles.simulation import simulate_aimd_reference
        from repro.simulation.aimd import AimdConfig, simulate_aimd

        config = AimdConfig(rounds=60, warmup_rounds=10)
        reference = simulate_aimd_reference(small_jellyfish, config=config, rng=5)
        tracer = enable()
        traced = simulate_aimd(small_jellyfish, config=config, rng=5)
        assert traced.flow_throughputs == reference.flow_throughputs
        assert traced.average_throughput == reference.average_throughput
        assert traced.fairness == reference.fairness
        assert traced.convergence_round == reference.convergence_round
        names = {e["name"] for e in tracer.events}
        assert {"aimd.compile", "aimd.rounds"} <= names

    def test_bfs_and_yen_match_reference_with_tracing_enabled(self, small_jellyfish):
        from repro.graphs.csr import batched_hop_distances, clear_csr_cache
        from oracles.routing import (
            all_pairs_hop_distances_reference,
            k_shortest_paths_reference,
        )
        from repro.routing.ksp import k_shortest_paths

        from repro.graphs.csr import csr_graph

        graph = small_jellyfish.graph
        reference_dist = all_pairs_hop_distances_reference(graph)
        nodes = sorted(graph.nodes)
        source, target = nodes[0], nodes[-1]
        reference_paths = k_shortest_paths_reference(graph, source, target, 4)
        tracer = enable()
        clear_csr_cache()  # drop memoized BFS rows/KSP results: trace fresh
        traced_dist = batched_hop_distances(graph)
        order = csr_graph(graph).nodes
        for i, u in enumerate(order):
            for j, v in enumerate(order):
                assert traced_dist[i, j] == reference_dist[u][v]
        assert k_shortest_paths(graph, source, target, 4) == reference_paths
        batch = [e for e in tracer.events if e["name"] == "bfs.batch"]
        assert batch and all(e["counters"]["frontier_sweeps"] >= 1 for e in batch)

    @pytest.mark.parametrize("sweep, spur_queries", [("table1", 7438), ("fig02c", 17545)])
    def test_yen_runs_exactly_the_scalar_spur_queries(self, sweep, spur_queries):
        """``yen.spur_candidates`` counts one per spur query of Yen's rounds.

        The totals were recorded at small scale, seed 0, with the per-pair
        scalar spur loop; the lockstep rounds must ask the same queries.
        """
        from repro.engine.registry import run_sweep
        from repro.graphs.csr import clear_csr_cache
        from repro.memo import clear_memos

        clear_memos()
        clear_csr_cache()
        tracer = enable(ring_size=1_000_000)
        run_sweep(sweep, "small", 0)
        credited = [tracer.root_counters] + [event["counters"] for event in tracer.events]
        assert sum(c.get("yen.spur_candidates", 0) for c in credited) == spur_queries


class TestReport:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5
        # A sweep served wholly from cache executed no point: no latency.
        record = RunRecord(run_id="1-x-a", sweep_id="fig02c")
        record.points = [PointRecord("c" * 64, "t", cached=True, duration_s=0.1)]
        (row,) = experiment_rows([record])
        assert math.isnan(row["p50_s"]) and math.isnan(row["p95_s"])

    def test_span_coverage_and_flame(self):
        tracer = enable()
        with trace("engine.point"):
            with trace("lp.solve", method="highs"):
                pass
        events = list(tracer.events)
        record = RunRecord(run_id="1-x-a", sweep_id="fig02c")
        record.points = [
            PointRecord("c" * 64, "t", cached=False, duration_s=events[-1]["dur_s"])
        ]
        coverage = span_coverage([record], events)
        assert coverage is not None
        root_s, executed_s, fraction = coverage
        assert fraction == pytest.approx(1.0)
        flame = render_flame(events)
        assert "engine.point" in flame.splitlines()[0]
        assert "lp.solve" in flame and "method=highs" in flame

    def test_render_stats_mentions_everything(self):
        tracer = enable()
        with trace("maxmin.fill"):
            pass
        record = RunRecord(run_id="1-y-b", sweep_id="fig09")
        record.points = [
            PointRecord("d" * 64, "t", cached=False, duration_s=0.25),
            PointRecord("e" * 64, "t", cached=True, duration_s=0.001),
        ]
        text = render_stats([record], list(tracer.events), flame="maxmin.fill")
        assert "fig09" in text
        assert "maxmin.fill" in text
        assert "hit rate" in text
        assert "flame: maxmin.fill" in text


class TestStatsCli:
    def test_traced_sweep_then_stats(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        runs_dir = tmp_path / "runs"
        trace_path = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "run",
                    "fig01",
                    "--seed",
                    "2",
                    "--cache-dir",
                    str(cache_dir),
                    "--runs-dir",
                    str(runs_dir),
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        disable()  # the CLI enabled a global tracer; tear it down
        assert list(runs_dir.glob("run-*.json"))
        assert trace_path.is_file()
        capsys.readouterr()

        assert main(["stats", "--runs-dir", str(runs_dir), "--flame"]) == 0
        out = capsys.readouterr().out
        assert "run manifests: 1" in out
        assert "fig01" in out
        assert "engine.point" in out
        assert "span coverage" in out
        assert "flame: engine.point" in out

    def test_stats_with_no_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", "--runs-dir", str(tmp_path / "nothing")]) == 0
        assert "run manifests: none found" in capsys.readouterr().out

    def test_sweep_run_without_cache_or_runs_dir_writes_no_manifest(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.telemetry.manifest import RUNS_DIR_ENV

        monkeypatch.delenv(RUNS_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "run", "fig01", "--no-cache"]) == 0
        assert not list(tmp_path.rglob("run-*.json"))


class TestJournal:
    def test_journal_round_trip(self, tmp_path):
        from repro.telemetry.manifest import journal_path, load_journal

        path = journal_path(tmp_path, "run1")
        assert path.name == "run-run1.journal.jsonl"
        lines = [
            {"hash": "a" * 64, "status": "ok", "value": {"x": 1}},
            {"hash": "b" * 64, "status": "journaled", "value": 2.5},
            {"hash": "c" * 64, "status": "failed"},  # no value: must re-run
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        completed = load_journal(path)
        assert completed == {"a" * 64: {"x": 1}, "b" * 64: 2.5}

    def test_torn_final_line_is_skipped(self, tmp_path):
        from repro.telemetry.manifest import journal_path, load_journal

        path = journal_path(tmp_path, "run2")
        good = json.dumps({"hash": "a" * 64, "status": "ok", "value": 1})
        path.write_text(good + "\n" + '{"hash": "bbbb", "stat')  # torn append
        assert load_journal(path) == {"a" * 64: 1}

    def test_missing_journal_is_empty(self, tmp_path):
        from repro.telemetry.manifest import journal_path, load_journal

        assert load_journal(journal_path(tmp_path, "nope")) == {}


class TestRecorderRobustness:
    def _run(self, tmp_path, **runner_kwargs):
        from repro.engine.runner import SweepRunner
        from repro.engine.spec import ScenarioSpec, expand

        points = expand(
            [
                ScenarioSpec.grid(
                    "oracles.targets:echo_point",
                    seed=0,
                    seed_strategy="derived",
                    x=[1, 2, 3],
                )
            ]
        )
        recorder = RunRecorder(
            "echo", seed=0, command=["test"], runs_root=tmp_path
        )
        runner = SweepRunner(progress=recorder.observe, **runner_kwargs)
        outcomes = runner.run(points)
        return recorder, runner, outcomes

    def test_initial_manifest_written_before_points(self, tmp_path):
        recorder = RunRecorder("echo", seed=0, command=["test"], runs_root=tmp_path)
        manifests = list(tmp_path.glob("run-*.json"))
        assert len(manifests) == 1
        initial = load_manifest(manifests[0])
        assert initial.sweep_id == "echo"
        assert initial.points == []
        assert initial.journal.endswith(".journal.jsonl")
        recorder.finalize(runs_root=tmp_path)

    def test_journal_written_per_point(self, tmp_path):
        from repro.telemetry.manifest import load_journal

        recorder, runner, outcomes = self._run(tmp_path)
        journal = load_journal(tmp_path / f"run-{recorder.record.run_id}.journal.jsonl")
        assert len(journal) == 3
        for outcome in outcomes:
            assert journal[outcome.point.scenario_hash] == outcome.value
        recorder.finalize(runs_root=tmp_path)

    def test_finalize_stamps_faults_and_interrupted(self, tmp_path):
        recorder, runner, _ = self._run(tmp_path)
        path = recorder.finalize(
            runs_root=tmp_path,
            faults=runner.fault_stats.as_dict(),
            interrupted=True,
        )
        loaded = load_manifest(path)
        assert loaded.interrupted is True
        assert loaded.failures["quarantined"] == 0
        assert loaded.failures["retries"] == 0

    def test_failed_outcomes_recorded_with_failure_payload(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            json.dumps({"seed": 0, "faults": [{"kind": "error", "indices": [1]}]}),
        )
        recorder, runner, outcomes = self._run(
            tmp_path,
            max_attempts=2,
            raise_on_failure=False,
            backoff_base_s=0.01,
        )
        path = recorder.finalize(
            runs_root=tmp_path, faults=runner.fault_stats.as_dict()
        )
        loaded = load_manifest(path)
        failed = [p for p in loaded.points if p.status == "failed"]
        assert len(failed) == 1
        assert failed[0].attempts == 2
        assert failed[0].failure["kind"] == "error"
        assert failed[0].failure["history"] == ["error", "error"]
        assert loaded.failures == {
            "retries": 1,
            "timeouts": 0,
            "crashes": 0,
            "ooms": 0,
            "signals": 0,
            "errors": 2,
            "degraded": 0,
            "quarantined": 1,
            "journal_skips": 0,
        }
        assert loaded.failed_count() == 1
        assert loaded.retry_count() == 1


class TestFaultReporting:
    def test_fault_summary_aggregates_and_renders(self):
        from repro.telemetry.report import fault_summary, render_fault_summary

        healthy = RunRecord(run_id="1-a-a", sweep_id="fig01")
        faulty = RunRecord(
            run_id="2-b-b",
            sweep_id="fig02a",
            failures={"retries": 2, "timeouts": 1, "quarantined": 1, "errors": 2},
            cache={"corruptions": 3},
            interrupted=True,
        )
        totals = fault_summary([healthy, faulty])
        assert totals["retries"] == 2
        assert totals["timeouts"] == 1
        assert totals["quarantined"] == 1
        assert totals["cache_corruptions"] == 3
        assert totals["interrupted_runs"] == 1
        text = render_fault_summary(totals)
        assert "2 retries" in text and "3 cache corruptions" in text
        assert "1 interrupted runs" in text

    def test_render_stats_includes_fault_summary_only_when_faulty(self):
        healthy = RunRecord(run_id="1-a-a", sweep_id="fig01")
        healthy.points = [PointRecord("a" * 64, "t", cached=False, duration_s=0.1)]
        assert "faults:" not in render_stats([healthy])

        faulty = RunRecord(
            run_id="2-b-b", sweep_id="fig01", failures={"retries": 4}
        )
        faulty.points = [
            PointRecord(
                "b" * 64,
                "t",
                cached=False,
                duration_s=0.0,
                status="failed",
                attempts=3,
                failure={"kind": "timeout", "message": "m"},
            )
        ]
        text = render_stats([healthy, faulty])
        assert "faults: 4 retries" in text
        assert "fail" in text and "retry" in text  # table columns

    def test_experiment_rows_count_failures(self):
        from repro.telemetry.report import experiment_rows

        record = RunRecord(
            run_id="1-a-a", sweep_id="fig01", failures={"retries": 2}
        )
        record.points = [
            PointRecord("a" * 64, "t", cached=False, duration_s=0.1),
            PointRecord(
                "b" * 64, "t", cached=False, duration_s=0.0, status="failed"
            ),
        ]
        (row,) = experiment_rows([record])
        assert row["failed"] == 1
        assert row["retries"] == 2
