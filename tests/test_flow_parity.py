"""Parity suite for the vectorized flow engine (repro.flow).

Pins the vectorized kernels against the retained pre-vectorization
implementations (:mod:`oracles.flow`):

* max-min fair allocation: bit-for-bit equality of flow rates, subflow
  rates and link loads on hypothesis-generated inputs, including zero-hop
  same-switch paths, saturated-at-zero links, repeated-link paths and
  duplicate flow ids;
* LP assembly: the COO-built constraint matrices equal the historical
  ``lil_matrix`` assembly entry-for-entry for both the edge and the path
  formulation;
* path-LP theta unchanged to 1e-9 on the fig10 small-graph suite and one
  fig04-sized LP, whichever HiGHS method the LP's size selects;
* the size rule itself: the method each ``lp.solve`` span records, and the
  one retry with the other method when a solve fails;
* the one link-capacity table: both LPs' arcs and capacities, and the
  screen's bound, read ``link_capacities`` (trunked leaf-spine links
  included);
* the shared path-set cache: reuse on an unchanged graph.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.flow import path_lp
from repro.flow.maxmin import FlowSpec, max_min_fair_allocation
from repro.flow.mcf import (
    FlowSolverError,
    _assemble_edge_lp,
    max_concurrent_flow_edge_lp,
)
from repro.flow.path_lp import (
    IPM_MIN_NNZ,
    PathLPStructure,
    max_concurrent_flow_path_lp,
)
from repro.memo import clear_memos
from repro.routing.paths import build_path_set, shared_path_set
from repro.simulation.capacity import link_capacities
from repro.topologies.clos import LeafSpineTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic

from oracles.flow import (
    assemble_edge_lp_reference,
    assemble_path_lp_reference,
    max_concurrent_flow_edge_lp_reference,
    max_concurrent_flow_path_lp_reference,
    max_min_fair_allocation_reference,
)

COMMON_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def allocation_problems(draw):
    """Random (flows, capacities, default_capacity) triples.

    Paths are arbitrary node tuples — including zero-hop single-node paths
    (same-switch traffic) and paths that revisit a link — and capacities
    include links saturated at zero, the corners the progressive-filling
    semantics must preserve.
    """
    num_nodes = draw(st.integers(min_value=2, max_value=8))
    nodes = list(range(num_nodes))
    rates = st.floats(
        min_value=0.01, max_value=4.0, allow_nan=False, allow_infinity=False
    )

    def path_strategy():
        return st.lists(
            st.sampled_from(nodes), min_size=1, max_size=5
        ).map(tuple)

    flows = []
    num_flows = draw(st.integers(min_value=1, max_value=6))
    for index in range(num_flows):
        paths = draw(st.lists(path_strategy(), min_size=1, max_size=3))
        demand = draw(rates)
        caps = None
        if draw(st.booleans()):
            caps = [draw(rates) for _ in paths]
        # Occasionally reuse a flow id to cover the duplicate-id overwrite
        # semantics of the reference bookkeeping.
        flow_id = f"f{index if not (index and draw(st.booleans())) else index - 1}"
        flows.append(
            FlowSpec(flow_id=flow_id, paths=paths, demand=demand, subflow_caps=caps)
        )

    capacities = {}
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        link = (draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))
        capacities[link] = draw(
            st.one_of(st.just(0.0), rates)  # saturated-at-zero links included
        )
    default_capacity = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return flows, capacities, default_capacity


class TestMaxMinParity:
    @COMMON_SETTINGS
    @given(allocation_problems())
    def test_bitwise_equal_to_reference(self, problem):
        flows, capacities, default_capacity = problem
        new = max_min_fair_allocation(
            flows, capacities, default_capacity=default_capacity
        )
        old = max_min_fair_allocation_reference(
            flows, capacities, default_capacity=default_capacity
        )
        assert new.flow_rates == old.flow_rates
        assert new.subflow_rates == old.subflow_rates
        assert new.link_loads == old.link_loads

    def test_zero_hop_and_saturated_links(self):
        flows = [
            FlowSpec("local", [("a",)], demand=0.7),
            FlowSpec("dead", [("a", "b")], demand=1.0),
            FlowSpec("mixed", [("a",), ("a", "c", "b")], demand=2.0),
        ]
        capacities = {("a", "b"): 0.0, ("a", "c"): 1.0, ("c", "b"): 0.5}
        new = max_min_fair_allocation(flows, capacities)
        old = max_min_fair_allocation_reference(flows, capacities)
        assert new.flow_rates == old.flow_rates
        assert new.subflow_rates == old.subflow_rates
        assert new.link_loads == old.link_loads
        assert new.flow_rates["dead"] == 0.0
        assert new.flow_rates["local"] == pytest.approx(0.7)

    def test_repeated_link_path(self):
        # A path that traverses (a, b) twice: one claimant, double load.
        flows = [
            FlowSpec("loop", [("a", "b", "a", "b")], demand=3.0),
            FlowSpec("plain", [("a", "b")], demand=3.0),
        ]
        capacities = {("a", "b"): 1.0, ("b", "a"): 1.0}
        new = max_min_fair_allocation(flows, capacities)
        old = max_min_fair_allocation_reference(flows, capacities)
        assert new.flow_rates == old.flow_rates
        assert new.link_loads == old.link_loads

    def test_fluid_scale_instance(self, equipment_jellyfish):
        """One realistic fluid-simulator-sized instance, exact parity."""
        from repro.simulation.capacity import link_capacities
        from repro.simulation.fluid import (
            TCP_EIGHT_FLOWS,
            SimulationConfig,
            _build_flow_specs,
        )
        from repro.utils.rng import ensure_rng

        traffic = random_permutation_traffic(equipment_jellyfish, rng=11)
        config = SimulationConfig(
            routing="ksp", k=8, congestion_control=TCP_EIGHT_FLOWS
        )
        path_set = build_path_set(
            equipment_jellyfish.csr(), list(traffic.switch_pairs()), scheme="ksp", k=8
        )
        specs = _build_flow_specs(traffic, path_set, config, ensure_rng(11))
        capacities = link_capacities(equipment_jellyfish)
        new = max_min_fair_allocation(specs, capacities)
        old = max_min_fair_allocation_reference(specs, capacities)
        assert new.flow_rates == old.flow_rates
        assert new.subflow_rates == old.subflow_rates
        assert new.link_loads == old.link_loads


def _assert_same_matrices(new_tuple, old_tuple):
    a_eq_new, b_eq_new, a_ub_new, b_ub_new, num_vars_new = new_tuple
    a_eq_old, b_eq_old, a_ub_old, b_ub_old, num_vars_old = old_tuple
    assert num_vars_new == num_vars_old
    for new, old in ((a_eq_new, a_eq_old), (a_ub_new, a_ub_old)):
        new = new.copy()
        old = old.copy()
        new.sum_duplicates()
        old.sum_duplicates()
        new.sort_indices()
        old.sort_indices()
        assert new.shape == old.shape
        assert np.array_equal(new.indptr, old.indptr)
        assert np.array_equal(new.indices, old.indices)
        assert np.array_equal(new.data, old.data)
    assert np.array_equal(b_eq_new, b_eq_old)
    assert np.array_equal(b_ub_new, b_ub_old)


class TestLpAssemblyParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_lp_matrices_equal(self, seed):
        topology = JellyfishTopology.build(8, 6, 3, rng=seed)
        traffic = random_permutation_traffic(topology, rng=seed)
        demands = traffic.switch_pairs()
        if not demands:
            pytest.skip("degenerate permutation")
        _assert_same_matrices(
            _assemble_edge_lp(topology, demands),
            assemble_edge_lp_reference(topology, demands),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_path_lp_matrices_equal(self, seed):
        topology = JellyfishTopology.build(10, 7, 4, rng=seed)
        traffic = random_permutation_traffic(topology, rng=seed)
        demands = traffic.switch_pairs()
        path_set = build_path_set(topology.csr(), list(demands), scheme="ksp", k=8)
        structure = PathLPStructure(link_capacities(topology))
        arrays = traffic.as_switch_array(topology.csr().index_of)
        _assert_same_matrices(
            structure.assemble(arrays, path_set),
            assemble_path_lp_reference(topology, demands, path_set),
        )

    def test_edge_lp_theta_unchanged(self, small_fattree):
        traffic = random_permutation_traffic(small_fattree, rng=4)
        new = max_concurrent_flow_edge_lp(small_fattree, traffic)
        old = max_concurrent_flow_edge_lp_reference(small_fattree, traffic)
        assert new == pytest.approx(old, abs=1e-9)


class TestPathLpThetaFig10Suite:
    """Theta parity to 1e-9 against the dual-simplex reference.

    The fig10 small-graph configurations give 1.3k-3.3k nonzeros, on both
    sides of ``IPM_MIN_NNZ``; the fig04 small configuration (100 switches,
    degree 6, 2 servers each) gives about 12k, where IPM replaces thousands
    of simplex pivots.
    """

    @pytest.mark.parametrize("config", [(10, 7, 4), (20, 8, 5), (100, 8, 6)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_theta_unchanged(self, config, seed):
        clear_memos()
        num_switches, ports, degree = config
        topology = JellyfishTopology.build(num_switches, ports, degree, rng=seed)
        for trial in range(2):
            traffic = random_permutation_traffic(topology, rng=seed * 10 + trial)
            new = max_concurrent_flow_path_lp(topology, traffic, k=12)
            old = max_concurrent_flow_path_lp_reference(topology, traffic, k=12)
            assert new == pytest.approx(old, abs=1e-9)


def _traced_solve(topology, traffic, k):
    """Theta plus the ``lp.assemble`` nnz and ``lp.solve`` counters."""
    clear_memos()
    tracer = telemetry.enable()
    try:
        theta = max_concurrent_flow_path_lp(topology, traffic, k=k)
    finally:
        telemetry.disable()
    (assembled,) = [e for e in tracer.events if e["name"] == "lp.assemble"]
    solves = [e["counters"] for e in tracer.events if e["name"] == "lp.solve"]
    return theta, assembled["counters"]["nnz"], solves


class TestSolveMethodBySize:
    """The LP's nonzero count, not the caller, picks the HiGHS method."""

    @pytest.mark.parametrize(
        "config, method",
        [((8, 6, 3), "highs-ds"), ((20, 8, 5), "highs-ipm")],
    )
    def test_span_records_method_for_lp_size(self, config, method):
        topology = JellyfishTopology.build(*config, rng=0)
        traffic = random_permutation_traffic(topology, rng=0)
        _, nnz, solves = _traced_solve(topology, traffic, k=8)
        assert (nnz >= IPM_MIN_NNZ) == (method == "highs-ipm")
        (solve,) = solves
        assert solve["method"] == method
        assert solve["success"] is True
        if method == "highs-ipm":
            assert solve["crossover_iterations"] > 0
        else:
            assert solve["crossover_iterations"] == 0

    def test_failed_solve_is_retried_once_with_the_other_method(self, monkeypatch):
        topology = JellyfishTopology.build(8, 6, 3, rng=0)
        traffic = random_permutation_traffic(topology, rng=0)
        expected, _, _ = _traced_solve(topology, traffic, k=8)
        real = path_lp.linprog
        calls = []

        def fail_first(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(kwargs["method"])
            if len(calls) == 1:
                result.success = False
            return result

        monkeypatch.setattr(path_lp, "linprog", fail_first)
        theta, _, solves = _traced_solve(topology, traffic, k=8)
        assert calls == ["highs-ds", "highs-ipm"]
        assert [s["success"] for s in solves] == [False, True]
        assert theta == pytest.approx(expected, abs=1e-9)

    def test_raises_when_both_methods_fail(self, monkeypatch):
        topology = JellyfishTopology.build(8, 6, 3, rng=0)
        traffic = random_permutation_traffic(topology, rng=0)
        real = path_lp.linprog

        def always_fail(*args, **kwargs):
            result = real(*args, **kwargs)
            result.success = False
            return result

        monkeypatch.setattr(path_lp, "linprog", always_fail)
        clear_memos()
        with pytest.raises(FlowSolverError):
            max_concurrent_flow_path_lp(topology, traffic, k=8)


class TestDecisionPathParity:
    """The screened/guarded decision path must match the plain LP decision."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_supports_matrix_equals_lp_decision(self, seed):
        from repro.flow.throughput import _supports_matrix, normalized_throughput

        # Sweep server counts across the feasibility threshold so the suite
        # covers comfortably feasible, near-threshold and screened-out cases.
        for num_servers in (16, 28, 40, 64):
            topology = JellyfishTopology.from_equipment(
                num_switches=16, ports_per_switch=6,
                num_servers=num_servers, rng=seed,
            )
            if not topology.is_connected():
                continue
            traffic = random_permutation_traffic(topology, rng=seed + 100)
            expected = normalized_throughput(
                topology, traffic, k=8
            ).supports_full_capacity()
            assert _supports_matrix(topology, traffic, 8) == expected

    def test_upper_bound_is_sound(self):
        from repro.flow.throughput import _throughput_upper_bound

        # On the trunked leaf-spine the bound is tight (0.5, 0.571, 0.571),
        # so a screen that read a 2-cable trunk as one cable would fail.
        inputs = [
            (JellyfishTopology.build(12, 6, 3, rng=seed), seed + 50)
            for seed in range(3)
        ]
        inputs += [(trunked_leaf_spine(), seed) for seed in range(3)]
        for topology, traffic_seed in inputs:
            traffic = random_permutation_traffic(topology, rng=traffic_seed)
            csr = topology.csr()
            arrays = traffic.as_switch_array(csr.index_of)
            bound = _throughput_upper_bound(csr, arrays, link_capacities(topology))
            theta = max_concurrent_flow_edge_lp(topology, traffic)
            assert theta <= bound + 1e-9


def trunked_leaf_spine():
    """4 leaves x 8 servers and 2 spines, each leaf-spine pair a 2-cable trunk."""
    return LeafSpineTopology.build(
        num_leaves=4, num_spines=2, servers_per_leaf=8,
        leaf_ports=12, spine_ports=8, links_per_pair=2,
    )


class TestLinkCapacityTable:
    """Both LPs read their arcs and capacities from ``link_capacities``."""

    @pytest.mark.parametrize(
        "build",
        [trunked_leaf_spine, lambda: JellyfishTopology.build(20, 8, 5, rng=4)],
        ids=["leaf-spine-trunks", "jellyfish-core"],
    )
    def test_lp_arcs_follow_the_table(self, build):
        topology = build()
        table = link_capacities(topology)
        # Each edge in graph order, then its reverse: the LP row order.
        assert list(table) == [
            arc for u, v in topology.graph.edges for arc in ((u, v), (v, u))
        ]
        structure = PathLPStructure(table)
        assert list(structure.arc_index) == list(table)
        assert list(structure.arc_index.values()) == list(range(len(table)))
        assert structure.capacities.tolist() == list(table.values())
        demands = random_permutation_traffic(topology, rng=1).switch_pairs()
        edge_capacities = _assemble_edge_lp(topology, demands)[3]
        assert edge_capacities.tolist() == list(table.values())


class TestSharedState:
    def test_shared_path_set_extends_lazily(self):
        clear_memos()
        topology = JellyfishTopology.build(10, 6, 3, rng=5)
        nodes = sorted(topology.graph.nodes)
        table = shared_path_set(topology.csr(), [(nodes[0], nodes[1])], k=4)
        assert len(table) == 1
        again = shared_path_set(
            topology.csr(), [(nodes[0], nodes[1]), (nodes[1], nodes[2])], k=4
        )
        assert again is table
        assert len(table) == 2

    def test_shared_path_set_matches_build_path_set(self):
        clear_memos()
        topology = JellyfishTopology.build(12, 6, 4, rng=6)
        nodes = sorted(topology.graph.nodes)
        pairs = [(a, b) for a in nodes[:4] for b in nodes[:4] if a != b]
        shared = shared_path_set(topology.csr(), pairs, scheme="ksp", k=6)
        built = build_path_set(topology.csr(), pairs, scheme="ksp", k=6)
        for pair in pairs:
            assert shared.get(pair) == built.get(pair)
