"""Tests for random regular graph construction (repro.graphs.regular)."""

import random

import networkx as nx
import pytest

from repro.graphs.regular import (
    _sample_pair,
    graph_from_rows,
    random_graph_with_degree_budget_rows,
    random_regular_graph,
    regular_rows,
    stub_matching_regular_rows,
)
from repro.topologies.base import Topology

from oracles.graphs import is_regular


def random_graph_with_degree_budget(budgets, rng=None):
    rows, labels = random_graph_with_degree_budget_rows(budgets, rng)
    return graph_from_rows(labels, rows)


class TestSequentialConstruction:
    def test_exact_regularity_even_product(self):
        graph = random_regular_graph(20, 4, rng=1)
        assert is_regular(graph, 4)

    def test_node_and_edge_counts(self):
        graph = random_regular_graph(30, 6, rng=2)
        assert graph.number_of_nodes() == 30
        assert graph.number_of_edges() == 30 * 6 // 2

    def test_connected_for_degree_three_and_up(self):
        for seed in range(5):
            graph = random_regular_graph(40, 3, rng=seed)
            assert nx.is_connected(graph)

    def test_simple_graph_no_self_loops(self):
        graph = random_regular_graph(25, 4, rng=3)
        assert all(u != v for u, v in graph.edges)

    def test_zero_degree(self):
        graph = random_regular_graph(10, 0, rng=4)
        assert graph.number_of_edges() == 0

    def test_empty_graph(self):
        graph = random_regular_graph(0, 0, rng=5)
        assert graph.number_of_nodes() == 0

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            random_regular_graph(5, 3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(ValueError):
            random_regular_graph(4, 4)

    def test_deterministic_given_seed(self):
        a = random_regular_graph(20, 4, rng=11)
        b = random_regular_graph(20, 4, rng=11)
        assert set(a.edges) == set(b.edges)

    def test_different_seeds_give_different_graphs(self):
        a = random_regular_graph(30, 5, rng=1)
        b = random_regular_graph(30, 5, rng=2)
        assert set(a.edges) != set(b.edges)


class TestPairingModel:
    """The ``stubs`` builder: a pairing (configuration) model with splice repair."""

    def test_regularity(self):
        graph = graph_from_rows(range(24), stub_matching_regular_rows(24, 5, rng=1))
        assert is_regular(graph, 5)

    def test_simple(self):
        graph = graph_from_rows(range(24), stub_matching_regular_rows(24, 5, rng=2))
        assert all(u != v for u, v in graph.edges)
        assert graph.number_of_edges() == 24 * 5 // 2  # no pair linked twice

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            stub_matching_regular_rows(7, 3)


class TestSamplePair:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_draws_like_random_sample(self, seed):
        # n = 2..60 covers both sides of random.sample's 21-element
        # threshold (pool copy at or below it, rejection above).
        for n in range(2, 61):
            population = list(range(100, 100 + n))
            fast = random.Random(seed * 1000 + n)
            library = random.Random(seed * 1000 + n)
            for _ in range(5):
                assert list(_sample_pair(fast, population)) == library.sample(
                    population, 2
                )
            assert fast.getstate() == library.getstate()

    def test_random_subclass_takes_the_sample_fallback(self):
        class CountingRandom(random.Random):
            calls = 0

            def sample(self, population, k, **kwargs):
                CountingRandom.calls += 1
                return super().sample(population, k, **kwargs)

        rand = CountingRandom(3)
        library = random.Random(3)
        population = list(range(30))
        assert list(_sample_pair(rand, population)) == library.sample(population, 2)
        assert CountingRandom.calls == 1
        assert rand.getstate() == library.getstate()


class TestDispatcher:
    @pytest.mark.parametrize("method", ["sequential", "stubs"])
    def test_all_methods_regular(self, method):
        graph = graph_from_rows(range(16), regular_rows(16, 4, rng=9, method=method))
        assert is_regular(graph, 4)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            regular_rows(10, 3, method="magic")


class TestDegreeBudget:
    def test_budgets_respected_exactly_when_even(self):
        budgets = {i: 4 for i in range(20)}
        graph = random_graph_with_degree_budget(budgets, rng=1)
        assert all(graph.degree(node) == 4 for node in budgets)

    def test_heterogeneous_budgets(self):
        budgets = {i: (5 if i < 10 else 3) for i in range(20)}
        graph = random_graph_with_degree_budget(budgets, rng=2)
        for node, budget in budgets.items():
            assert graph.degree(node) <= budget
        # At most one node-port can remain unmatched overall.
        unused = sum(budget - graph.degree(node) for node, budget in budgets.items())
        assert unused <= 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            random_graph_with_degree_budget({0: -1, 1: 1})

    def test_unrealizable_budget_rejected(self):
        with pytest.raises(ValueError):
            random_graph_with_degree_budget({0: 3, 1: 3, 2: 3})  # 3 nodes, degree 3

    def test_zero_budgets(self):
        graph = random_graph_with_degree_budget({0: 0, 1: 0}, rng=3)
        assert graph.number_of_edges() == 0


class TestHelpers:
    def test_free_port_counts(self):
        # Free ports are what the random-link step may still use.
        topology = Topology(nx.path_graph(3), {0: 4, 1: 4, 2: 4})
        counts = {node: topology.free_ports(node) for node in topology.graph}
        assert counts == {0: 3, 1: 2, 2: 3}
        assert topology.core().free_ports_array().tolist() == [3, 2, 3]

    def test_is_regular_empty(self):
        assert is_regular(nx.Graph())

    def test_is_regular_wrong_degree(self):
        assert not is_regular(nx.cycle_graph(5), 3)
        assert is_regular(nx.cycle_graph(5), 2)
        assert not is_regular(nx.path_graph(3))
