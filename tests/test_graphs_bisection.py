"""Tests for bisection bandwidth tools (repro.graphs.bisection)."""

import math

import networkx as nx
import pytest

from repro.experiments.fig02a_bisection import jellyfish_curve_point
from repro.graphs.csr import csr_graph
from repro.graphs.bisection import (
    bollobas_bisection_lower_bound,
    cut_size,
    estimate_bisection_bandwidth,
)
from repro.topologies.ensemble import ensemble_bisection_point

from oracles.graphs import exact_bisection_bandwidth


class TestBollobasBound:
    def test_formula(self):
        value = bollobas_bisection_lower_bound(100, 16)
        expected = 100 * (16 / 4 - math.sqrt(16 * math.log(2)) / 2)
        assert value == pytest.approx(expected)

    def test_clamped_at_zero_for_tiny_degree(self):
        assert bollobas_bisection_lower_bound(100, 1) == 0.0

    def test_approaches_quarter_of_links_for_large_degree(self):
        num_nodes, degree = 1000, 10_000
        bound = bollobas_bisection_lower_bound(num_nodes, degree)
        total_links = num_nodes * degree / 2
        assert bound / total_links == pytest.approx(0.5, rel=0.1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            bollobas_bisection_lower_bound(-1, 3)


class TestCutAndExact:
    def test_cut_size_path(self):
        graph = nx.path_graph(4)
        assert cut_size(csr_graph(graph), {0, 1}) == 1
        assert cut_size(csr_graph(graph), {0, 2}) == 3

    def test_exact_on_complete_graph(self):
        graph = nx.complete_graph(6)
        # Every balanced cut of K6 crosses 3*3 = 9 edges.
        assert exact_bisection_bandwidth(graph) == 9

    def test_exact_on_cycle(self):
        assert exact_bisection_bandwidth(nx.cycle_graph(8)) == 2

    def test_exact_requires_even(self):
        with pytest.raises(ValueError):
            exact_bisection_bandwidth(nx.path_graph(5))

    def test_exact_rejects_large_graphs(self):
        with pytest.raises(ValueError):
            exact_bisection_bandwidth(nx.cycle_graph(30))


class TestHeuristic:
    def test_heuristic_upper_bounds_exact(self):
        graph = nx.random_regular_graph(3, 14, seed=3)
        exact = exact_bisection_bandwidth(graph)
        estimate = estimate_bisection_bandwidth(graph, trials=8, rng=0)
        assert estimate >= exact
        # Kernighan-Lin should get close on such a small instance.
        assert estimate <= exact * 2

    def test_trivial_graph(self):
        assert estimate_bisection_bandwidth(nx.Graph(), trials=1) == 0.0

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            estimate_bisection_bandwidth(nx.cycle_graph(4), trials=0)


class TestNormalization:
    """Fig 2(a)'s normalization: the Bollobás bound over one side's servers."""

    def test_normalized_bisection(self):
        # 1,400 servers on 100 24-port switches leave r = 10 network ports.
        expected = bollobas_bisection_lower_bound(100, 10) / 700
        assert jellyfish_curve_point(100, 24, 1400) == pytest.approx(expected)

    def test_jellyfish_normalized_monotone_in_degree(self):
        low = jellyfish_curve_point(100, 24, 100 * (24 - 10))
        high = jellyfish_curve_point(100, 24, 100 * (24 - 20))
        assert high > low

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            jellyfish_curve_point(50, 24, 0)

    def test_jellyfish_requires_servers(self):
        # The sampled counterpart of the curve point rejects it before building.
        with pytest.raises(ValueError):
            ensemble_bisection_point(20, 6, 0)
