"""Parity suite for the array-native topology layer.

Pins the production constructors, the splice repair and the incremental
expansion bit-identical (same seed -> same edge set, same adjacency
insertion order, same rng end state) to the retained reference
implementations:

* fast sequential RRG vs :mod:`oracles.graphs` (hypothesis);
* fast degree-budget construction vs its reference, heterogeneous budgets
  and disconnection corners included;
* vectorized stub matching vs its scalar reference;
* ``add_switch``'s incremental candidate set vs the historical quadratic
  rebuild;
* fig08-ens's in-place link failure vs the copy-and-remove path;

plus direct tests of :class:`~repro.topologies.core.TopologyCore`
invariants: the graph materialization order contract, the zero-copy CSR
bridge, canonical content hashing, and the lazy ``Topology`` wrapper.
"""

import random
from types import SimpleNamespace
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.failures.injection import fail_random_links
from repro.graphs.csr import CSRGraph, csr_graph
from repro.graphs.regular import (
    graph_from_rows,
    random_graph_with_degree_budget,
    sequential_random_regular_graph,
    stub_matching_regular_graph,
)
from repro.topologies.base import Topology, TopologyError
from repro.topologies.core import TopologyCore
from repro.topologies.ensemble import (
    _structural_metrics,
    ensemble_failure_point,
    ensemble_point_specs,
    summarize_instance_metrics,
)
from repro.topologies.jellyfish import JellyfishTopology, rrg_budget, rrg_core
from repro.utils.rng import spawn_seeds

from oracles.graphs import (
    random_graph_with_degree_budget_reference,
    sequential_random_regular_graph_reference,
    stub_matching_regular_graph_reference,
)
from oracles.topologies import add_switch_reference

COMMON_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def assert_same_graph(fast: nx.Graph, reference: nx.Graph) -> None:
    """Node list, edge list (order + orientation) and adjacency order equal."""
    assert list(fast.nodes) == list(reference.nodes)
    assert list(fast.edges) == list(reference.edges)
    for node in reference.nodes:
        assert list(fast.adj[node]) == list(reference.adj[node])


@st.composite
def regular_params(draw):
    num_nodes = draw(st.integers(min_value=0, max_value=26))
    if num_nodes == 0:
        return num_nodes, 0, draw(st.integers(min_value=0, max_value=2**16))
    degree = draw(st.integers(min_value=0, max_value=min(num_nodes - 1, 7)))
    if (num_nodes * degree) % 2 != 0:
        degree -= 1
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return num_nodes, max(0, degree), seed


class TestSequentialParity:
    @COMMON_SETTINGS
    @given(regular_params())
    def test_bit_identical_to_reference(self, params):
        num_nodes, degree, seed = params
        fast_rng = random.Random(seed)
        reference_rng = random.Random(seed)
        fast = sequential_random_regular_graph(num_nodes, degree, fast_rng)
        reference = sequential_random_regular_graph_reference(
            num_nodes, degree, reference_rng
        )
        assert_same_graph(fast, reference)
        # The fast path must consume the rng stream identically.
        assert fast_rng.random() == reference_rng.random()

    def test_rejects_odd_total_degree(self):
        with pytest.raises(ValueError):
            sequential_random_regular_graph(5, 3)

    def test_large_instance_spot_check(self):
        fast = sequential_random_regular_graph(120, 11, random.Random(9))
        reference = sequential_random_regular_graph_reference(
            120, 11, random.Random(9)
        )
        assert_same_graph(fast, reference)


class TestDegreeBudgetParity:
    @COMMON_SETTINGS
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=18),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),
    )
    def test_bit_identical_to_reference(self, raw_budgets, seed, string_labels):
        size = len(raw_budgets)
        budgets = {
            (f"s{i}" if string_labels else i): min(value, size - 1)
            for i, value in enumerate(raw_budgets)
        }
        from repro.graphs.regular import GraphConstructionError

        fast_rng = random.Random(seed)
        reference_rng = random.Random(seed)
        # Unsatisfiable budgets (e.g. one node wants links but every
        # potential partner has budget 0) stall both implementations
        # identically; satisfiable ones must produce identical graphs.
        try:
            reference = random_graph_with_degree_budget_reference(
                budgets, reference_rng, max_stall_rounds=50
            )
        except GraphConstructionError as error:
            with pytest.raises(GraphConstructionError, match="degree budgets"):
                random_graph_with_degree_budget(budgets, fast_rng, max_stall_rounds=50)
            del error
            return
        fast = random_graph_with_degree_budget(budgets, fast_rng, max_stall_rounds=50)
        assert_same_graph(fast, reference)
        assert fast_rng.random() == reference_rng.random()

    def test_zero_budgets_give_isolated_nodes(self):
        graph = random_graph_with_degree_budget({0: 0, 1: 0, 2: 2, 3: 2}, rng=1)
        assert graph.degree(0) == 0 and graph.degree(1) == 0
        assert not nx.is_connected(graph)

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            random_graph_with_degree_budget({0: -1})
        with pytest.raises(ValueError):
            random_graph_with_degree_budget({0: 2, 1: 1})


class TestStubMatchingParity:
    @COMMON_SETTINGS
    @given(regular_params())
    def test_bit_identical_to_reference(self, params):
        num_nodes, degree, seed = params
        fast_rng = random.Random(seed)
        reference_rng = random.Random(seed)
        fast = stub_matching_regular_graph(num_nodes, degree, fast_rng)
        reference = stub_matching_regular_graph_reference(
            num_nodes, degree, reference_rng
        )
        assert_same_graph(fast, reference)
        assert fast_rng.random() == reference_rng.random()

    def test_regular_at_paper_degrees(self):
        graph = stub_matching_regular_graph(60, 11, rng=4)
        assert all(degree == 11 for _, degree in graph.degree())


class TestAddSwitchParity:
    @COMMON_SETTINGS
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=3),
    )
    def test_bit_identical_to_reference(self, build_seed, splice_seed, servers):
        fast = JellyfishTopology.build(18, 7, 4, rng=build_seed)
        reference = JellyfishTopology.build(18, 7, 4, rng=build_seed)
        fast_rng = random.Random(splice_seed)
        reference_rng = random.Random(splice_seed)
        fast.add_switch("new", 7, servers=servers, rng=fast_rng)
        add_switch_reference(reference, "new", 7, servers=servers, rng=reference_rng)
        assert_same_graph(fast.graph, reference.graph)
        assert fast_rng.random() == reference_rng.random()

    def test_expand_validates_once_and_matches_per_step_validation(self):
        fast = JellyfishTopology.build(20, 6, 4, rng=7)
        stepwise = JellyfishTopology.build(20, 6, 4, rng=7)
        rng_fast, rng_step = random.Random(8), random.Random(8)
        fast.expand(5, 6, 2, rng=rng_fast)
        start = stepwise.num_switches
        for offset in range(5):
            stepwise.add_switch(
                ("new", start + offset), 6, servers=2, rng=rng_step
            )
        assert_same_graph(fast.graph, stepwise.graph)
        assert fast.servers == stepwise.servers


class TestFailureMaskParity:
    @COMMON_SETTINGS
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
    )
    def test_link_mask_matches_copy_and_remove(self, seed, fraction):
        # fig08-ens fails its own instance in place; it must keep exactly
        # the links fail_random_links keeps for the same draws.
        evaluated = []

        def spy(topology, **kwargs):
            evaluated.append({frozenset(edge) for edge in topology.graph.edges})
            return SimpleNamespace(normalized=0.0)

        with mock.patch("repro.flow.throughput.degraded_throughput", spy):
            point = ensemble_failure_point(20, 4, 18, fraction, seed=seed)
        rng = random.Random(seed)
        plant = JellyfishTopology.from_equipment(20, 4, 18, rng=rng)
        reference = fail_random_links(plant, fraction, rng=rng)
        assert evaluated == [{frozenset(edge) for edge in reference.graph.edges}]
        assert point["failed_links"] == plant.num_links - reference.num_links


class TestTopologyCore:
    def test_materialization_matches_add_edge_replay(self):
        rows = [{} for _ in range(4)]
        # Chronology: (1,3), (0,2), remove (1,3), (3,1) re-added, (0,1).
        for u, v in [(1, 3), (0, 2)]:
            rows[u][v] = True
            rows[v][u] = True
        del rows[1][3], rows[3][1]
        for u, v in [(3, 1), (0, 1)]:
            rows[u][v] = True
            rows[v][u] = True
        graph = graph_from_rows(["a", "b", "c", "d"], rows)
        replay = nx.Graph()
        replay.add_nodes_from(["a", "b", "c", "d"])
        for u, v in [("b", "d"), ("a", "c")]:
            replay.add_edge(u, v)
        replay.remove_edge("b", "d")
        replay.add_edge("d", "b")
        replay.add_edge("a", "b")
        assert_same_graph(graph, replay)

    def test_materialized_edge_attr_dicts_are_shared(self):
        topology = JellyfishTopology.build(10, 5, 2, rng=0)
        graph = topology.graph
        u, v = next(iter(graph.edges))
        graph[u][v]["capacity"] = 7.0
        assert graph[v][u]["capacity"] == 7.0

    def test_csr_bridge_equals_graph_built_csr(self):
        topology = JellyfishTopology.build(24, 8, 5, rng=2)
        core_csr = topology.core().csr()
        fresh = CSRGraph(topology.graph)
        assert core_csr.nodes == fresh.nodes
        assert np.array_equal(core_csr.indptr, fresh.indptr)
        assert np.array_equal(core_csr.indices, fresh.indices)
        assert core_csr.num_edges == fresh.num_edges

    def test_materialization_adopts_core_csr(self):
        topology = JellyfishTopology.build(12, 6, 3, rng=3)
        view = topology.csr()  # built on the core, graph not materialized
        assert not topology.has_materialized_graph
        graph = topology.graph
        assert csr_graph(graph) is view

    def test_content_hash_ignores_construction_order(self):
        topology = JellyfishTopology.build(12, 6, 4, rng=5)
        core = topology.core()
        shuffled_rows = [list(reversed(row)) for row in core.rows]
        shuffled = TopologyCore(
            core.labels, shuffled_rows, core.ports, core.servers
        )
        assert shuffled.content_hash == core.content_hash

    def test_content_hash_sees_structure_ports_and_servers(self):
        base = JellyfishTopology.build(12, 6, 4, rng=5).core()
        u, v = 0, next(iter(base.rows[0]))
        one_edge_fewer = [
            [j for j in row if {i, j} != {u, v}] for i, row in enumerate(base.rows)
        ]
        rewired = TopologyCore(base.labels, one_edge_fewer, base.ports, base.servers)
        assert rewired.num_edges == base.num_edges - 1
        assert rewired.content_hash != base.content_hash
        servers = base.servers.copy()
        servers[0] += 1
        more_servers = TopologyCore(base.labels, base.rows, base.ports, servers)
        assert more_servers.content_hash != base.content_hash

    def test_copy_as_graph_copy_matches_networkx_copy_order(self):
        topology = JellyfishTopology.build(15, 6, 4, rng=6)
        nx_copy = topology.graph.copy()
        core_copy = topology.core().copy_as_graph_copy()
        materialized = core_copy.to_networkx()
        assert_same_graph(materialized, nx_copy)

    def test_validate_reports_overdrawn_switch(self):
        with pytest.raises(TopologyError, match="uses"):
            TopologyCore(["a", "b"], [[1], [0]], [1, 2], [1, 0]).validate()


class TestLazyTopologyWrapper:
    def test_metrics_without_materialization(self):
        topology = JellyfishTopology.build(30, 8, 5, rng=1)
        assert not topology.has_materialized_graph
        assert topology.num_switches == 30
        assert topology.num_links == 75
        assert topology.is_connected()
        mean_lazy = topology.switch_average_path_length()
        diameter_lazy = topology.switch_diameter()
        cdf_lazy = topology.server_path_length_cdf()
        assert not topology.has_materialized_graph
        # Materialize and recompute through the graph path.
        eager = JellyfishTopology(
            topology.graph,
            dict(topology.ports),
            dict(topology.servers),
        )
        assert eager.switch_average_path_length() == mean_lazy
        assert eager.switch_diameter() == diameter_lazy
        assert eager.server_path_length_cdf() == cdf_lazy

    def test_server_cdf_matches_host_graph_path(self):
        from repro.graphs.properties import path_length_cdf

        topology = JellyfishTopology.from_equipment(20, 6, 26, rng=4)
        via_host_graph = path_length_cdf(
            topology.host_graph(), topology.server_nodes()
        )
        assert topology.server_path_length_cdf() == via_host_graph

    def test_attach_servers_updates_core(self):
        topology = JellyfishTopology.build(10, 8, 3, rng=2, servers_per_switch=3)
        topology.attach_servers(0, 2)
        core = topology.core()
        assert int(core.servers[core.index_of[0]]) == 3 + 2
        with pytest.raises(TopologyError):
            topology.attach_servers(0, 100)

    def test_core_revalidates_after_graph_mutation(self):
        topology = JellyfishTopology.build(10, 6, 3, rng=3)
        before = topology.core().num_edges
        topology.remove_links([next(iter(topology.graph.edges))])
        assert topology.core().num_edges == before - 1

    def test_from_core_validates(self):
        with pytest.raises(TopologyError):
            Topology.from_core(
                TopologyCore(["a", "b"], [[1], [0]], [1, 1], [1, 1])
            )


class TestTrafficArrays:
    def test_as_switch_array_matches_switch_pairs(self):
        from repro.traffic.matrices import random_permutation_traffic

        topology = JellyfishTopology.build(12, 6, 4, rng=5)
        traffic = random_permutation_traffic(topology, rng=6)
        csr = topology.csr()
        arrays = traffic.as_switch_array(csr.index_of)
        pairs = traffic.switch_pairs()
        assert arrays.pairs == list(pairs)
        assert arrays.rates.tolist() == list(pairs.values())
        assert [csr.nodes[i] for i in arrays.src.tolist()] == [
            src for src, _ in pairs
        ]
        assert [csr.nodes[i] for i in arrays.dst.tolist()] == [
            dst for _, dst in pairs
        ]

    def test_aggregates_follow_demand_list_changes(self):
        from repro.traffic.matrices import Demand, random_permutation_traffic

        topology = JellyfishTopology.build(10, 6, 4, rng=7)
        traffic = random_permutation_traffic(topology, rng=8)
        csr = topology.csr()
        before_pairs = dict(traffic.switch_pairs())
        before_arrays = traffic.as_switch_array(csr.index_of)
        # A same-length slot replacement shows in both aggregates.
        old = traffic.demands[0]
        traffic.demands[0] = Demand(old.source, old.destination, old.rate + 1.0)
        after_pairs = traffic.switch_pairs()
        assert after_pairs != before_pairs
        after_arrays = traffic.as_switch_array(csr.index_of)
        assert after_arrays.rates.sum() == pytest.approx(
            before_arrays.rates.sum() + 1.0
        )
        # Demands themselves are frozen: derive a scaled copy instead.
        with pytest.raises(AttributeError):
            traffic.demands[0].rate = 99.0


def _cores(instances, switches, ports, degree, method="sequential", seed=0) -> list:
    """A batch's instances: ``rrg_core`` over the seeds spawned from ``seed``."""
    return [
        rrg_core(switches, ports, degree, instance_seed, method=method)
        for instance_seed in spawn_seeds(seed, instances)
    ]


def _serial_metrics(*batch, **options) -> list:
    """Per-instance structural metrics of the batch's cores, built serially."""
    return [
        _structural_metrics(JellyfishTopology.from_core(core))
        for core in _cores(*batch, **options)
    ]


class TestEnsembles:
    def test_instances_are_distinct_and_reproducible(self):
        first = [core.content_hash for core in _cores(6, 20, 6, 4, seed=3)]
        second = [core.content_hash for core in _cores(6, 20, 6, 4, seed=3)]
        assert first == second
        assert len(set(first)) == 6

    def test_methods_share_seeding_but_differ_structurally(self):
        sequential = ensemble_point_specs(3, 20, 6, 4, seed=1)
        stubs = ensemble_point_specs(3, 20, 6, 4, method="stubs", seed=1)
        assert [spec.seed for spec in sequential] == [spec.seed for spec in stubs]
        assert [c.content_hash for c in _cores(3, 20, 6, 4, seed=1)] != [
            c.content_hash for c in _cores(3, 20, 6, 4, method="stubs", seed=1)
        ]

    def test_sharded_points_match_serial_summary(self):
        from repro.engine.runner import SweepRunner
        from repro.engine.spec import expand

        serial = _serial_metrics(5, 14, 6, 3, seed=4)
        specs = ensemble_point_specs(5, 14, 6, 3, seed=4)
        values = SweepRunner().run_values(expand(specs))
        assert values == serial

    @pytest.mark.parametrize("method", ["stubs", "pairing", "networkx"])
    def test_sharded_points_match_serial_summary_for_every_method(self, method):
        # Serial cores and sharded JellyfishTopology.build points run one
        # builder, so every construction method gives the same summary.
        from repro.engine.runner import SweepRunner
        from repro.engine.spec import expand

        serial = _serial_metrics(4, 16, 6, 3, method=method, seed=8)
        specs = ensemble_point_specs(4, 16, 6, 3, method=method, seed=8)
        values = SweepRunner().run_values(expand(specs))
        assert values == serial
        assert summarize_instance_metrics(serial)["distinct_hashes"] == 4

    def test_ablation_methods_build_serially_too(self):
        # pairing/networkx have no rows-native path; rrg_core must still
        # produce cores for them (matching the sharded points).
        summary = summarize_instance_metrics(
            _serial_metrics(2, 12, 6, 4, method="pairing", seed=6)
        )
        assert summary["num_instances"] == 2
        assert summary["distinct_hashes"] == 2

    def test_odd_total_degree_drops_one_port(self):
        assert rrg_budget(5, 6, 3) == (3, 2)
        for core in _cores(2, 5, 6, 3, seed=5):
            assert int(core.degrees().max()) <= 2
