"""Lifecycle engine: event streams, backend parity, resume, chaos, fig08."""

import json

import pytest

from repro.engine import run_sweep
from repro.engine.spec import expand
from repro.experiments import fig08_lifecycle
from repro.lifecycle import (
    EPOCH,
    EPOCH_TARGET,
    EXPAND,
    LINK_FAIL,
    LINK_REPAIR,
    SWITCH_FAIL,
    IncrementalMetrics,
    LifecycleConfig,
    LifecycleEvent,
    epoch_hash,
    generate_events,
    lifecycle_point,
    run_lifecycle,
)
from repro.topologies.jellyfish import JellyfishTopology

from oracles.lifecycle import ColdMetrics

FAST = dict(
    duration_hours=72.0,
    link_failure_rate=0.3,
    switch_failure_rate=0.05,
    link_mttr_hours=4.0,
    switch_mttr_hours=8.0,
    epoch_interval_hours=24.0,
    epoch_engine="path",
    routing="ecmp",
    k=4,
    congestion_control="tcp1",
)


def small_plant(seed=7):
    return JellyfishTopology.build(12, 6, 4, rng=seed)


class TestEventGeneration:
    def test_deterministic_and_sorted(self):
        config = LifecycleConfig(**FAST)
        first = generate_events(config, 3)
        second = generate_events(config, 3)
        assert first == second
        assert first != generate_events(config, 4)
        keys = [event.sort_key() for event in first]
        assert keys == sorted(keys)

    def test_same_time_priority_repairs_before_failures_before_epoch(self):
        ordered = sorted(
            [
                LifecycleEvent(24.0, EPOCH, 1),
                LifecycleEvent(24.0, LINK_FAIL, 5),
                LifecycleEvent(24.0, EXPAND, 1),
                LifecycleEvent(24.0, LINK_REPAIR, 2),
                LifecycleEvent(24.0, SWITCH_FAIL, 0),
            ],
            key=LifecycleEvent.sort_key,
        )
        assert [event.kind for event in ordered] == [
            LINK_REPAIR,
            LINK_FAIL,
            SWITCH_FAIL,
            EXPAND,
            EPOCH,
        ]

    def test_max_events_keeps_sorted_prefix(self):
        config = LifecycleConfig(**FAST)
        full = generate_events(config, 1)
        truncated = generate_events(
            config := LifecycleConfig(**{**FAST, "max_events": 10}), 1
        )
        assert truncated == full[:10]

    def test_failure_streams_are_independent(self):
        links_only = {**FAST, "switch_failure_rate": 0.05}
        more_switches = {**FAST, "switch_failure_rate": 0.5}

        def link_events(kwargs):
            return [
                event
                for event in generate_events(LifecycleConfig(**kwargs), 9)
                if event.kind in (LINK_FAIL, LINK_REPAIR)
            ]

        assert link_events(links_only) == link_events(more_switches)

    def test_epochs_start_at_zero_expansions_do_not(self):
        config = LifecycleConfig(
            **{
                **FAST,
                "expansion_interval_hours": 24.0,
                "expansion_batch": 1,
                "expansion_ports": 6,
                "expansion_servers": 2,
            }
        )
        events = generate_events(config, 0)
        epochs = [event.time_h for event in events if event.kind == EPOCH]
        expands = [event.time_h for event in events if event.kind == EXPAND]
        assert epochs[0] == 0.0
        assert expands and min(expands) > 0.0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"duration_hours": 0.0},
            {"link_failure_rate": -1.0},
            {"link_mttr_hours": 0.0},
            {"epoch_interval_hours": 0.0},
            {"expansion_interval_hours": 24.0},  # expanding without a batch
            {
                "expansion_interval_hours": 24.0,
                "expansion_batch": 1,
                "expansion_ports": 4,
                "expansion_servers": 5,
            },
            {"epoch_engine": "quantum"},
            {"routing": "ospf"},
            {"congestion_control": "bbr"},
            {"traffic": "replay"},
            {"max_events": -1},
        ],
    )
    def test_bad_configs_raise(self, overrides):
        with pytest.raises(ValueError):
            LifecycleConfig(**{**FAST, **overrides})

    def test_config_hash_sensitive_to_every_field(self):
        base = LifecycleConfig(**FAST).config_hash()
        assert LifecycleConfig(**{**FAST, "traffic": "fixed"}).config_hash() != base
        assert LifecycleConfig(**{**FAST, "k": 5}).config_hash() != base
        assert LifecycleConfig(**FAST).config_hash() == base


class TestBackendParity:
    @pytest.mark.parametrize("traffic_mode", ["per-epoch", "fixed"])
    def test_incremental_matches_reference(self, traffic_mode):
        config = LifecycleConfig(**{**FAST, "traffic": traffic_mode})
        incremental = run_lifecycle(small_plant(), config, seed=11)
        reference = run_lifecycle(
            small_plant(), config, seed=11, metrics_class=ColdMetrics
        )
        assert incremental.event_log == reference.event_log
        assert incremental.epochs == reference.epochs

    def test_parity_through_expansion(self):
        config = LifecycleConfig(
            **{
                **FAST,
                "expansion_interval_hours": 24.0,
                "expansion_batch": 2,
                "expansion_ports": 6,
                "expansion_servers": 2,
            }
        )
        incremental = run_lifecycle(small_plant(), config, seed=5)
        reference = run_lifecycle(
            small_plant(), config, seed=5, metrics_class=ColdMetrics
        )
        assert incremental.epochs == reference.epochs
        # Expansion actually grew the plant over the run.
        switches = [record["switches"] for record in incremental.event_log]
        assert max(switches) > small_plant().num_switches

    @pytest.mark.parametrize(
        "metrics_class, epoch_engine",
        [
            (IncrementalMetrics, "path"),
            (ColdMetrics, "path"),
            (IncrementalMetrics, "fluid"),
            (ColdMetrics, "fluid"),
        ],
        ids=["incremental", "reference", "incremental-fluid", "reference-fluid"],
    )
    def test_losing_every_switch_degrades_to_zero(self, metrics_class, epoch_engine):
        plant = small_plant()
        config = LifecycleConfig(**{**FAST, "epoch_engine": epoch_engine})
        events = [
            LifecycleEvent(float(i), SWITCH_FAIL, i)
            for i in range(plant.num_switches)
        ]
        events.append(LifecycleEvent(float(plant.num_switches), EPOCH, 0))
        result = run_lifecycle(
            plant, config, seed=0, metrics_class=metrics_class, events=events
        )
        assert result.events_applied == plant.num_switches + 1
        final = result.epochs[-1]
        assert final["availability"] == 0.0
        assert final["throughput"] == 0.0
        assert final["failed_switches"] == plant.num_switches


class TestResumeAndChaos:
    def test_journaled_epochs_are_not_reevaluated(self):
        config = LifecycleConfig(**FAST)
        baseline = run_lifecycle(small_plant(), config, seed=2)
        plant_hash = small_plant().content_hash()
        completed = {
            epoch_hash(config, plant_hash, "jellyfish", 2, record["epoch"]): record
            for record in baseline.epochs[:2]
        }
        outcomes = []
        resumed = run_lifecycle(
            small_plant(),
            config,
            seed=2,
            family="jellyfish",
            completed=completed,
            observer=lambda done, total, outcome: outcomes.append(outcome),
        )
        assert resumed.epochs == baseline.epochs
        assert [outcome.status for outcome in outcomes[:2]] == [
            "journaled",
            "journaled",
        ]
        assert all(outcome.cached for outcome in outcomes[:2])
        assert all(outcome.status == "ok" for outcome in outcomes[2:])

    def test_journal_of_another_plant_replays_no_epoch(self):
        # Same config, family and seed on a 20- and a 40-switch plant: the
        # 20-switch journal must not stand in for the 40-switch epochs.
        config = LifecycleConfig(
            duration_hours=72.0,
            epoch_interval_hours=24.0,
            link_failure_rate=0.3,
            link_mttr_hours=4.0,
            routing="ecmp",
            k=4,
            congestion_control="tcp1",
        )

        def run(switches, **kwargs):
            plant = JellyfishTopology.from_equipment(switches, 6, 30, rng=0)
            return run_lifecycle(plant, config, seed=3, family="jellyfish", **kwargs)

        journal = {}
        run(20, observer=lambda done, total, outcome: journal.update(
            {outcome.point.scenario_hash: outcome.value}
        ))
        statuses = []
        replayed = run(
            40,
            completed=journal,
            observer=lambda done, total, outcome: statuses.append(outcome.status),
        )
        assert statuses == ["ok", "ok", "ok"]
        assert replayed.epochs == run(40).epochs

    def test_transient_chaos_error_is_retried(self, monkeypatch):
        config = LifecycleConfig(**FAST)
        baseline = run_lifecycle(small_plant(), config, seed=2)
        plan = {
            "seed": 0,
            "faults": [
                {
                    "kind": "error",
                    "rate": 1.0,
                    "attempts": [1],
                    "indices": [1],
                    "target": EPOCH_TARGET,
                }
            ],
        }
        monkeypatch.setenv("REPRO_FAULTS", json.dumps(plan))
        outcomes = []
        result = run_lifecycle(
            small_plant(),
            config,
            seed=2,
            observer=lambda done, total, outcome: outcomes.append(outcome),
        )
        assert result.epochs == baseline.epochs
        assert result.failed_epochs == 0
        assert outcomes[1].attempts == 2

    def test_exhausted_retries_mark_epoch_failed(self, monkeypatch):
        config = LifecycleConfig(**FAST)
        plan = {
            "seed": 0,
            "faults": [
                {
                    "kind": "error",
                    "rate": 1.0,
                    "indices": [1],
                    "target": EPOCH_TARGET,
                }
            ],
        }
        monkeypatch.setenv("REPRO_FAULTS", json.dumps(plan))
        outcomes = []
        result = run_lifecycle(
            small_plant(),
            config,
            seed=2,
            max_attempts=2,
            observer=lambda done, total, outcome: outcomes.append(outcome),
        )
        assert result.failed_epochs == 1
        assert outcomes[1].status == "failed"
        assert outcomes[1].attempts == 2
        assert outcomes[1].failure is not None
        # The failed epoch is simply absent from the timeline.
        assert [record["epoch"] for record in result.epochs] == [0, 2]


class TestLifecyclePoint:
    def test_point_is_json_serializable(self):
        value = lifecycle_point(
            family="jellyfish",
            ports=6,
            num_switches=12,
            num_servers=24,
            seed=1,
            **FAST,
        )
        json.dumps(value)
        assert value["family"] == "jellyfish"
        assert value["plant_servers"] == 24
        assert len(value["epochs"]) == 3


class TestFig08Lifecycle:
    def test_build_specs_shares_one_seed_across_families(self):
        specs = fig08_lifecycle.build_specs("small", seed=4)
        assert len(specs) == 1
        points = expand(specs)
        assert sorted(point.params["family"] for point in points) == [
            "fattree",
            "jellyfish",
        ]
        assert {point.seed for point in points} == {4}

    def test_run_is_deterministic(self):
        first = run_sweep("fig08-lifecycle", "small", seed=0)
        second = run_sweep("fig08-lifecycle", "small", seed=0)
        assert first.rows == second.rows
        assert first.columns[0] == "time_h"
        for row in first.rows:
            for value in row[1:]:
                assert 0.0 <= value <= 1.0

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            fig08_lifecycle.build_specs("galactic", seed=0)
