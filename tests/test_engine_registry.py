"""Tests for the sweep registry: every figure as a scenario sweep.

The key guarantees: every experiment is a sweep module, a scale it does not
define fails when its specs are built, a grid reproduces the hand-rolled
loop it replaced, and a second invocation of a sweep is served from the
result cache.
"""

import pytest

from repro.engine import (
    ResultCache,
    SweepRunner,
    get_sweep,
    list_sweeps,
    run_sweep,
    sweep_points,
    sweep_specs,
)
from repro.experiments.common import EXPERIMENTS
from repro.experiments.fig02a_bisection import _SCALES as FIG02A_SCALES
from repro.experiments.fig02a_bisection import jellyfish_curve_point
from repro.experiments.fig02b_equipment_cost import _SCALES as FIG02B_SCALES
from repro.experiments.fig02b_equipment_cost import (
    jellyfish_min_ports_for_full_bisection,
)

from oracles.results import column


class TestRegistry:
    def test_every_experiment_is_registered_as_a_sweep(self):
        assert list_sweeps() == sorted(EXPERIMENTS)

    def test_unknown_sweep_raises(self):
        with pytest.raises(KeyError):
            get_sweep("fig99")
        with pytest.raises(KeyError):
            run_sweep("fig99")

    def test_points_are_declarative_and_hashed(self):
        points = sweep_points("fig02a", scale="small", seed=0)
        assert len(points) == 24
        assert len({p.scenario_hash for p in points}) == 24

    def test_specs_capture_the_grid(self):
        specs = sweep_specs("fig02b", scale="small", seed=0)
        assert len(specs) == 1
        assert specs[0].axes["ports"] == [24, 32]

    @pytest.mark.parametrize("sweep_id", list_sweeps())
    def test_unknown_scale_fails_when_building(self, sweep_id):
        sweep = get_sweep(sweep_id)
        assert callable(sweep.build_specs) and callable(sweep.assemble)
        with pytest.raises(ValueError):
            sweep_specs(sweep_id, "galactic", 0)


class TestEquivalenceWithDirectExecution:
    """``repro sweep run X`` must equal the pre-engine experiment output."""

    def test_fig02a_matches_pre_refactor_loop(self):
        """Re-derive Fig 2(a) with the original hand-rolled loop and compare."""
        expected = []
        for num_switches, ports in FIG02A_SCALES["small"]:
            max_servers = num_switches * (ports - 1)
            for step in range(1, 13):
                servers = int(round(step * max_servers / 12))
                expected.append(jellyfish_curve_point(num_switches, ports, servers))
        result = run_sweep("fig02a", scale="small", seed=0)
        assert column(result, "jellyfish_normalized_bisection") == expected

    def test_fig02b_matches_pre_refactor_loop(self):
        config = FIG02B_SCALES["small"]
        expected = [
            jellyfish_min_ports_for_full_bisection(ports, servers)
            for ports in config["ports"]
            for servers in config["server_targets"]
        ]
        result = run_sweep("fig02b", scale="small", seed=0)
        assert column(result, "jellyfish_total_ports") == expected

    def test_same_seed_reproduces_and_seeds_differ(self):
        first = run_sweep("fig01", scale="small", seed=3)
        second = run_sweep("fig01", scale="small", seed=3)
        other = run_sweep("fig01", scale="small", seed=4)
        assert first.rows == second.rows
        assert first.rows != other.rows


class TestSweepCaching:
    def test_second_invocation_is_served_from_cache(self, tmp_path):
        cold = ResultCache(tmp_path)
        first = run_sweep("fig02a", scale="small", seed=0, runner=SweepRunner(cache=cold))
        total = len(sweep_points("fig02a", scale="small", seed=0))
        assert cold.stats.writes == total

        warm = ResultCache(tmp_path)
        second = run_sweep("fig02a", scale="small", seed=0, runner=SweepRunner(cache=warm))
        assert second.rows == first.rows
        # Acceptance bar: >= 90% of points served from cache; here it is 100%.
        assert warm.stats.hits >= 0.9 * total
        assert warm.stats.misses == 0

    def test_single_point_sweep_caches_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep("fig01", scale="small", seed=0, runner=SweepRunner(cache=cache))
        warm = ResultCache(tmp_path)
        run_sweep("fig01", scale="small", seed=0, runner=SweepRunner(cache=warm))
        assert warm.stats.hits == 1
