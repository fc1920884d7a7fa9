"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.flow.maxmin import FlowSpec, max_min_fair_allocation
from repro.flow.mcf import max_concurrent_flow_edge_lp
from repro.flow.path_lp import max_concurrent_flow_path_lp
from repro.graphs.bisection import bollobas_bisection_lower_bound, cut_size
from repro.graphs.properties import average_path_length, diameter, path_length_distribution
from repro.graphs.regular import is_regular, sequential_random_regular_graph
from repro.routing.ksp import k_shortest_paths
from repro.routing.paths import build_path_set
from repro.simulation.capacity import link_capacities
from repro.simulation.fluid import (
    MPTCP,
    TCP_EIGHT_FLOWS,
    TCP_ONE_FLOW,
    SimulationConfig,
    simulate_fluid,
)
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic
from repro.utils.stats import jains_fairness_index, percentile

# Keep hypothesis example counts modest: individual cases build graphs.
COMMON_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def regular_graph_params(draw):
    num_nodes = draw(st.integers(min_value=6, max_value=40))
    degree = draw(st.integers(min_value=2, max_value=min(6, num_nodes - 1)))
    if (num_nodes * degree) % 2 != 0:
        degree -= 1
    return num_nodes, max(2, degree), draw(st.integers(min_value=0, max_value=2**16))


class TestRandomRegularGraphProperties:
    @COMMON_SETTINGS
    @given(regular_graph_params())
    def test_construction_is_regular_and_simple(self, params):
        num_nodes, degree, seed = params
        graph = sequential_random_regular_graph(num_nodes, degree, rng=seed)
        assert is_regular(graph, degree)
        assert all(u != v for u, v in graph.edges)
        assert graph.number_of_edges() == num_nodes * degree // 2

    @COMMON_SETTINGS
    @given(regular_graph_params())
    def test_handshake_lemma(self, params):
        num_nodes, degree, seed = params
        graph = sequential_random_regular_graph(num_nodes, degree, rng=seed)
        assert sum(d for _, d in graph.degree()) == 2 * graph.number_of_edges()

    @COMMON_SETTINGS
    @given(regular_graph_params())
    def test_diameter_at_least_log_bound(self, params):
        """Moore bound: a degree-r graph of diameter d has at most
        1 + r * ((r-1)^d - 1)/(r-2) nodes, so the diameter cannot be tiny."""
        num_nodes, degree, seed = params
        graph = sequential_random_regular_graph(num_nodes, degree, rng=seed)
        if not nx.is_connected(graph) or degree < 3:
            return
        d = diameter(graph)
        moore = 1 + degree * ((degree - 1) ** d - 1) / (degree - 2)
        assert moore >= num_nodes


class TestJellyfishProperties:
    @COMMON_SETTINGS
    @given(
        st.integers(min_value=8, max_value=30),
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_port_budget_never_violated(self, switches, degree, servers, seed):
        ports = degree + servers
        topo = JellyfishTopology.build(
            switches, ports, degree, rng=seed, servers_per_switch=servers
        )
        for node in topo.graph.nodes:
            assert topo.graph.degree(node) + topo.servers[node] <= topo.ports[node]

    @COMMON_SETTINGS
    @given(
        st.integers(min_value=10, max_value=25),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_expansion_preserves_invariants(self, switches, seed):
        topo = JellyfishTopology.build(switches, 6, 4, rng=seed)
        servers_before = topo.num_servers
        topo.add_switch("extra", 6, servers=2, rng=seed + 1)
        topo.validate()
        assert topo.num_servers == servers_before + 2
        assert topo.graph.degree("extra") <= 4

    @COMMON_SETTINGS
    @given(
        st.integers(min_value=10, max_value=30),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_permutation_traffic_is_a_derangement(self, switches, servers, seed):
        servers = min(servers, switches * 2)
        topo = JellyfishTopology.from_equipment(switches, 6, servers, rng=seed)
        traffic = random_permutation_traffic(topo, rng=seed)
        assert len(traffic) == (servers if servers >= 2 else 0)
        assert all(d.source != d.destination for d in traffic)


class TestKShortestPathProperties:
    @COMMON_SETTINGS
    @given(regular_graph_params(), st.integers(min_value=1, max_value=6))
    def test_paths_sorted_valid_and_distinct(self, params, k):
        num_nodes, degree, seed = params
        graph = sequential_random_regular_graph(num_nodes, degree, rng=seed)
        nodes = sorted(graph.nodes)
        source, target = nodes[0], nodes[-1]
        if not nx.has_path(graph, source, target):
            return
        paths = k_shortest_paths(graph, source, target, k)
        assert 1 <= len(paths) <= k
        assert len(set(paths)) == len(paths)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)
        for path in paths:
            assert path[0] == source and path[-1] == target
            assert len(set(path)) == len(path)
            assert all(graph.has_edge(u, v) for u, v in zip(path, path[1:]))
        # The first path must be a true shortest path.
        assert len(paths[0]) - 1 == nx.shortest_path_length(graph, source, target)


class TestAllocationProperties:
    @COMMON_SETTINGS
    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=2.0),
            min_size=1,
            max_size=12,
        )
    )
    def test_single_link_sharing_never_exceeds_capacity(self, demands):
        flows = [
            FlowSpec(f"f{i}", [("a", "b")], demand=demand)
            for i, demand in enumerate(demands)
        ]
        allocation = max_min_fair_allocation(flows, {("a", "b"): 1.0})
        total = sum(allocation.flow_rates.values())
        assert total <= 1.0 + 1e-6
        assert total <= sum(demands) + 1e-6
        for spec in flows:
            assert allocation.flow_rates[spec.flow_id] <= spec.demand + 1e-6
        # Work conservation: either the link is full or every demand is met.
        assert (
            total >= min(1.0, sum(demands)) - 1e-6
        )


@st.composite
def lp_instance_params(draw):
    """(switches, network degree, servers per switch, seed) of a small Jellyfish."""
    return (
        draw(st.integers(min_value=6, max_value=14)),
        draw(st.integers(min_value=3, max_value=4)),
        draw(st.integers(min_value=1, max_value=3)),
        draw(st.integers(min_value=0, max_value=2**16)),
    )


def _jellyfish_with_permutation(params):
    switches, degree, servers, seed = params
    topology = JellyfishTopology.build(switches, degree + servers, degree, rng=seed)
    return topology, random_permutation_traffic(topology, rng=seed + 1)


def _ksp_path_set(topology, traffic, k):
    pairs = [(demand.source_switch, demand.destination_switch) for demand in traffic]
    return build_path_set(topology.graph, pairs, scheme="ksp", k=k)


class TestLpInvariants:
    """Solver-independent invariants of the max-concurrent-flow LPs.

    They hold whichever HiGHS method solved an LP, so a wrong vertex from
    either side of the path LP's size rule fails them.  On these graphs
    k <= 2 keeps every path LP under ``IPM_MIN_NNZ`` (dual simplex) and
    large k on the larger graphs puts it over (IPM); the two explicit
    examples are one LP on each side.
    """

    @COMMON_SETTINGS
    @given(lp_instance_params(), st.sampled_from([1, 2, 4, 8, 16, 24]))
    @example((12, 4, 2, 3), 2)
    @example((12, 4, 2, 3), 24)
    def test_path_lp_never_exceeds_edge_lp(self, params, k):
        topology, traffic = _jellyfish_with_permutation(params)
        assume(topology.is_connected())
        path_theta = max_concurrent_flow_path_lp(topology, traffic, k=k)
        edge_theta = max_concurrent_flow_edge_lp(topology, traffic)
        assert path_theta <= edge_theta + 1e-9

    @COMMON_SETTINGS
    @given(lp_instance_params(), st.sampled_from([1, 2, 4, 8]))
    def test_max_min_never_exceeds_path_lp(self, params, k):
        # Any allocation over a path set, summed per switch pair, is feasible
        # for the path LP over the same paths, and the path LP maximizes the
        # smallest rate / demand ratio.
        topology, traffic = _jellyfish_with_permutation(params)
        assume(topology.is_connected())
        path_set = _ksp_path_set(topology, traffic, k)
        flows = []
        for index, demand in enumerate(traffic):
            pair = (demand.source_switch, demand.destination_switch)
            paths = path_set[pair] if pair[0] != pair[1] else [(pair[0],)]
            flows.append(
                FlowSpec(
                    flow_id=index,
                    paths=paths,
                    demand=demand.rate,
                    subflow_caps=[demand.rate] * len(paths),
                )
            )
        allocation = max_min_fair_allocation(flows, link_capacities(topology))
        smallest = min(allocation.flow_rates[f.flow_id] / f.demand for f in flows)
        theta = max_concurrent_flow_path_lp(topology, traffic, path_set=path_set)
        assert smallest <= theta + 1e-7

    @COMMON_SETTINGS
    @given(
        lp_instance_params(),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([TCP_ONE_FLOW, TCP_EIGHT_FLOWS, MPTCP]),
    )
    def test_fluid_model_never_exceeds_path_lp(self, params, k, congestion_control):
        # The fluid model routes every flow over the same path set, so its
        # allocation is one more feasible point of the path LP.
        topology, traffic = _jellyfish_with_permutation(params)
        assume(topology.is_connected())
        path_set = _ksp_path_set(topology, traffic, k)
        config = SimulationConfig(k=k, congestion_control=congestion_control)
        result = simulate_fluid(
            topology, traffic, config, rng=params[3], path_set=path_set
        )
        theta = max_concurrent_flow_path_lp(topology, traffic, path_set=path_set)
        assert min(result.flow_throughputs) <= theta + 1e-7

    @COMMON_SETTINGS
    @given(lp_instance_params(), st.integers(min_value=0, max_value=2**16))
    def test_removing_a_link_never_raises_edge_lp(self, params, pick):
        # Edge LP only: the path LP re-routes its k shortest paths when the
        # graph changes, so its optimum is not monotone in the link set.
        topology, traffic = _jellyfish_with_permutation(params)
        theta = max_concurrent_flow_edge_lp(topology, traffic)
        links = list(topology.graph.edges)
        failed = topology.copy()
        failed.remove_links([links[pick % len(links)]])
        assert max_concurrent_flow_edge_lp(failed, traffic) <= theta + 1e-9


class TestStatisticsProperties:
    @COMMON_SETTINGS
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=50))
    def test_jain_index_bounds(self, rates):
        value = jains_fairness_index(rates)
        assert 1.0 / len(rates) - 1e-9 <= value <= 1.0 + 1e-9

    @COMMON_SETTINGS
    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
        st.floats(min_value=0, max_value=100),
    )
    def test_percentile_within_range(self, values, q):
        result = percentile(values, q)
        assert min(values) - 1e-9 <= result <= max(values) + 1e-9


class TestBisectionProperties:
    @COMMON_SETTINGS
    @given(regular_graph_params())
    def test_any_balanced_cut_respects_bollobas_direction(self, params):
        """Bollobás lower-bounds the *minimum* cut; any specific balanced cut
        we evaluate must be at least that bound minus the finite-size slack
        (the bound is asymptotic, so only check it is not wildly violated)."""
        num_nodes, degree, seed = params
        if num_nodes % 2 != 0 or degree < 3:
            return
        graph = sequential_random_regular_graph(num_nodes, degree, rng=seed)
        nodes = sorted(graph.nodes)
        partition = set(nodes[: num_nodes // 2])
        observed = cut_size(graph, partition)
        bound = bollobas_bisection_lower_bound(num_nodes, degree)
        assert observed >= 0.5 * bound - 2
