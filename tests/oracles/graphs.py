"""Retained pre-vectorization graph constructors (parity references).

These are the original ``networkx``-native implementations of the paper's
random-graph procedures, kept verbatim so the array-native rewrites in
:mod:`repro.graphs.regular` can be pinned against them: the hypothesis suite
in ``tests/test_topology_core.py`` asserts that, for the same seed, the fast
constructors consume the rng stream identically and produce the same edge
set *and* the same adjacency insertion order (which downstream CSR kernels
use for deterministic tie-breaking).

Do not modify the algorithmic bodies here: they define the rng-stream
contract the production constructors must honor.

:func:`exact_bisection_bandwidth` is the exhaustive bisection width the
tests hold the Kernighan–Lin estimate and the Bollobás bound against, and
:func:`is_regular` the degree check the builder tests apply.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

import networkx as nx
import numpy as np

from repro.graphs.csr import csr_graph
from repro.graphs.regular import GraphConstructionError, _validate_regular_params
from repro.utils.rng import RngLike, ensure_rng


def complete_by_splicing_reference(
    graph: nx.Graph,
    free: Dict,
    rand,
    max_stall_rounds: int = 1000,
    error="could not complete regular graph construction",
) -> None:
    """The paper's construction loop on a (possibly partial) ``nx.Graph``.

    Joins random pairs of non-adjacent nodes with free ports; when stuck,
    splices a node with >= 2 free ports into a random existing link, and
    finishes the all-single-port end-game by rewiring one edge.  This is the
    historical loop shared by the sequential and degree-budget constructors,
    extracted so the stub-matching reference can reuse it for its repair
    phase.  Mutates ``graph`` and ``free`` in place.
    """
    open_nodes = [node for node in graph.nodes if free[node] > 0]

    def prune_open_nodes() -> None:
        open_nodes[:] = [node for node in open_nodes if free[node] > 0]

    def try_add_random_edge() -> bool:
        prune_open_nodes()
        if len(open_nodes) < 2:
            return False
        attempts = 4 * len(open_nodes)
        for _ in range(attempts):
            u, v = rand.sample(open_nodes, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                free[u] -= 1
                free[v] -= 1
                return True
        for i, u in enumerate(open_nodes):
            for v in open_nodes[i + 1:]:
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v)
                    free[u] -= 1
                    free[v] -= 1
                    return True
        return False

    stall_rounds = 0
    while True:
        if try_add_random_edge():
            continue
        prune_open_nodes()
        stuck = [node for node in open_nodes if free[node] >= 2]
        if not stuck:
            if not _repair_single_port_pair_reference(graph, free, open_nodes, rand):
                break
            continue
        node = rand.choice(stuck)
        edge_list = list(graph.edges)
        rand.shuffle(edge_list)
        spliced = False
        for x, y in edge_list:
            if node in (x, y) or graph.has_edge(node, x) or graph.has_edge(node, y):
                continue
            graph.remove_edge(x, y)
            graph.add_edge(node, x)
            graph.add_edge(node, y)
            free[node] -= 2
            spliced = True
            break
        if not spliced:
            stall_rounds += 1
            if stall_rounds > max_stall_rounds:
                raise GraphConstructionError(error() if callable(error) else error)


def _repair_single_port_pair_reference(graph: nx.Graph, free, open_nodes, rand) -> bool:
    """End-game repair: two adjacent single-free-port nodes rewire one edge."""
    singles = [node for node in open_nodes if free[node] == 1]
    if len(singles) < 2:
        return False
    rand.shuffle(singles)
    for i, u in enumerate(singles):
        for v in singles[i + 1:]:
            edge_list = list(graph.edges)
            rand.shuffle(edge_list)
            for x, y in edge_list:
                if u in (x, y) or v in (x, y):
                    continue
                for first, second in ((x, y), (y, x)):
                    if not graph.has_edge(u, first) and not graph.has_edge(v, second):
                        graph.remove_edge(x, y)
                        graph.add_edge(u, first)
                        graph.add_edge(v, second)
                        free[u] -= 1
                        free[v] -= 1
                        return True
    return False


def sequential_random_regular_graph_reference(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
) -> nx.Graph:
    """Original per-edge Python implementation of the paper's construction."""
    _validate_regular_params(num_nodes, degree)
    rand = ensure_rng(rng)

    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    if num_nodes == 0 or degree == 0:
        return graph

    free = {node: degree for node in graph.nodes}
    complete_by_splicing_reference(
        graph,
        free,
        rand,
        max_stall_rounds,
        error=(
            "could not complete regular graph construction "
            f"(num_nodes={num_nodes}, degree={degree})"
        ),
    )
    return graph


def random_graph_with_degree_budget_reference(
    budgets: Dict,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
) -> nx.Graph:
    """Original heterogeneous-degree construction (per-edge Python loop)."""
    rand = ensure_rng(rng)
    graph = nx.Graph()
    graph.add_nodes_from(budgets)
    for node, budget in budgets.items():
        if budget < 0:
            raise ValueError(f"negative degree budget for node {node!r}")
        if budget >= len(budgets) and budget > 0:
            raise ValueError(
                f"degree budget for node {node!r} ({budget}) is not realizable "
                f"with {len(budgets)} nodes"
            )

    free = dict(budgets)
    complete_by_splicing_reference(
        graph,
        free,
        rand,
        max_stall_rounds,
        error=lambda: (
            "could not satisfy the degree budgets "
            f"(remaining: { {n: f for n, f in free.items() if f > 0} })"
        ),
    )
    return graph


def stub_matching_regular_graph_reference(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
) -> nx.Graph:
    """Scalar stub-matching construction (the vectorized kernel's reference).

    Draws one 64-bit seed from ``rng`` for a numpy ``Generator``, permutes
    the stub multiset once, then walks consecutive stub pairs in order,
    skipping self-loops and pairs that duplicate an earlier edge.  Leftover
    free ports are completed with the paper's splice-repair loop (driven by
    the *Python* rng, exactly like the sequential construction).
    """
    _validate_regular_params(num_nodes, degree)
    rand = ensure_rng(rng)
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    if num_nodes == 0 or degree == 0:
        return graph

    np_rng = np.random.default_rng(rand.getrandbits(64))
    stubs = np.repeat(np.arange(num_nodes, dtype=np.int64), degree)
    paired = stubs[np_rng.permutation(stubs.shape[0])].tolist()
    for i in range(0, len(paired) - 1, 2):
        u = int(paired[i])
        v = int(paired[i + 1])
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v)

    free = {node: degree - graph.degree(node) for node in graph.nodes}
    if any(count > 0 for count in free.values()):
        complete_by_splicing_reference(
            graph,
            free,
            rand,
            max_stall_rounds,
            error=(
                "could not complete stub-matching construction "
                f"(num_nodes={num_nodes}, degree={degree})"
            ),
        )
    return graph


def is_regular(graph: nx.Graph, degree: Optional[int] = None) -> bool:
    """True when every node has degree ``degree`` (or, if None, one common degree)."""
    degrees = {d for _, d in graph.degree()}
    if not degrees:
        return True
    if degree is None:
        return len(degrees) == 1
    return degrees == {degree}


def exact_bisection_bandwidth(graph: nx.Graph) -> int:
    """Exact bisection width by exhaustive search (tiny graphs only).

    The graph must have an even number of nodes.  Complexity is
    C(n, n/2) cut evaluations; it validates the Kernighan–Lin heuristic.
    Partitions are evaluated in vectorized batches over the CSR edge
    arrays: one membership matrix per chunk, one comparison per edge
    endpoint, instead of a per-partition edge loop.
    """
    num_nodes = graph.number_of_nodes()
    if num_nodes % 2 != 0:
        raise ValueError("exact bisection requires an even number of nodes")
    if num_nodes == 0:
        return 0
    if num_nodes > 20:
        raise ValueError("exact bisection is only supported for <= 20 nodes")
    csr = csr_graph(graph)
    if csr.num_edges == 0:
        return 0
    half = num_nodes // 2
    heads = csr.edge_sources()
    tails = csr.indices
    best = None
    combos = itertools.combinations(range(1, num_nodes), half - 1)
    chunk_size = 16384
    while True:
        chunk = list(itertools.islice(combos, chunk_size))
        if not chunk:
            break
        side = np.zeros((len(chunk), num_nodes), dtype=bool)
        side[:, 0] = True  # node index 0 anchors one half
        if half > 1:
            rows = np.repeat(np.arange(len(chunk)), half - 1)
            side[rows, np.asarray(chunk, dtype=np.intp).ravel()] = True
        crossings = (side[:, heads] != side[:, tails]).sum(axis=1)
        chunk_best = int(crossings.min()) // 2
        if best is None or chunk_best < best:
            best = chunk_best
    return best if best is not None else 0
