"""Random regular graph construction (array-native).

The Jellyfish paper (Section 3) does not require exactly-uniform sampling of
r-regular graphs: it uses a simple sequential procedure -- repeatedly join a
uniform-random pair of non-adjacent switches that still have free ports, and
when the process gets stuck with a switch holding two or more free ports,
"open up" a random existing link and splice the stuck switch into it.

This module implements that procedure over index-space adjacency rows
instead of an ``nx.Graph``: plain insertion-ordered dicts replicate the
networkx adjacency bookkeeping exactly (same insertion *and* deletion
order), the open-node list is maintained incrementally instead of being
re-filtered per added edge (the historical implementation spent >80% of a
fig05-scale build in that ``prune_open_nodes`` list comprehension), and the
rng stream is consumed identically -- every ``sample``/``shuffle``/``choice``
draw the original made is reproduced draw-for-draw, so the produced graph is
bit-identical for the same seed.  The hypothesis suite in
``tests/test_topology_core.py`` pins the parity against the historical
implementations (``tests/oracles/graphs.py``).

The random step is one function, :func:`add_random_link`.
:func:`_complete_by_splicing` drives it for the paper's procedure (random
links, then splice repairs until every port is used), and
:func:`fill_random_links` for the builders that leave a stuck port free
(the SWDC shortcuts and the localized Jellyfish layers).

:func:`regular_rows` dispatches the constructions on ``method``
(:func:`random_regular_graph` materializes its rows):

* ``"sequential"`` -- the paper's procedure (default);
* ``"stubs"`` -- a vectorized configuration-model pass (one numpy
  permutation pairs every stub at once; self-loops and duplicate pairs are
  dropped first-occurrence-first) followed by the paper's splice repair for
  the leftover ports.  This is the fast constructor used for large
  topology ensembles;
* ``"pairing"`` -- :func:`pairing_model_regular_graph`, the classical
  rejection-sampling configuration model, kept as an ablation baseline;
* ``"networkx"`` -- :func:`networkx.random_regular_graph`, an ablation too.

:func:`random_graph_with_degree_budget` generalizes the sequential
construction to heterogeneous per-node degree budgets.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence

import networkx as nx
import numpy as np

from repro.telemetry import count, trace
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_integer


class GraphConstructionError(RuntimeError):
    """Raised when a random graph cannot be constructed for the parameters."""


def _validate_regular_params(num_nodes: int, degree: int) -> None:
    require_integer(num_nodes, "num_nodes")
    require_integer(degree, "degree")
    if num_nodes < 0:
        raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    if degree >= num_nodes and num_nodes > 0 and degree > 0:
        raise ValueError(
            f"degree ({degree}) must be smaller than num_nodes ({num_nodes})"
        )
    if (num_nodes * degree) % 2 != 0:
        raise ValueError(
            "num_nodes * degree must be even for a regular graph "
            f"(got {num_nodes} * {degree})"
        )


def free_port_counts(graph: nx.Graph, degree: int) -> Dict:
    """Map each node to the number of unused (free) ports at target ``degree``."""
    return {node: degree - graph.degree(node) for node in graph.nodes}


# --------------------------------------------------------------------------- #
# RNG-stream-compatible draw helpers
# --------------------------------------------------------------------------- #
def _sample_pair(rand, population: Sequence[int]):
    """Two distinct elements, drawing exactly like ``rand.sample(seq, 2)``.

    Replicates CPython's ``random.Random.sample`` draw pattern for ``k == 2``
    (pool-copy path for ``len <= 21``, rejection path above) through the same
    ``_randbelow`` the library method would call, skipping the per-call
    isinstance/ABC overhead that dominates the hot loop.  Any ``Random``
    subclass falls back to the genuine ``sample`` so overridden generators
    keep their own stream.
    """
    n = len(population)
    if type(rand) is not random.Random:
        pair = rand.sample(population, 2)
        return pair[0], pair[1]
    randbelow = rand._randbelow
    if n <= 21:  # random.sample's setsize threshold for k == 2
        pool = list(population)
        j = randbelow(n)
        first = pool[j]
        pool[j] = pool[n - 1]
        return first, pool[randbelow(n - 1)]
    j = randbelow(n)
    k = randbelow(n)
    while k == j:
        k = randbelow(n)
    return population[j], population[k]


# --------------------------------------------------------------------------- #
# Index-space construction core
# --------------------------------------------------------------------------- #
def _edges_in_iteration_order(rows: List[dict]) -> list:
    """Every edge exactly as ``nx.Graph.edges`` would iterate the graph.

    With nodes inserted in index order, networkx yields each edge once as
    ``(u, v)`` with ``u < v``, ordered by ``u`` and, within a row, by the
    adjacency insertion order -- which the row dicts preserve bit-for-bit.
    """
    return [(u, v) for u, row in enumerate(rows) for v in row if v > u]


def _first_linkable_pair(rows: List[dict], open_nodes: List[int], allowed):
    """The first unlinked, allowed pair of ``open_nodes`` in list order, or None."""
    for i, u in enumerate(open_nodes):
        row_u = rows[u]
        for v in open_nodes[i + 1:]:
            if v not in row_u and (allowed is None or allowed(u, v)):
                return u, v
    return None


def add_random_link(
    rows: List[dict],
    free: List[int],
    open_nodes: List[int],
    rand,
    allowed: Optional[Callable[[int, int], bool]] = None,
) -> bool:
    """The paper's random step: link a random pair of open nodes.

    ``open_nodes`` must hold exactly the indices with ``free > 0`` in node
    order.  Up to ``4 * len(open_nodes)`` pairs are drawn like
    ``rand.sample(open_nodes, 2)``; the first not yet linked (and accepted
    by ``allowed``, if given) is linked, else the first such pair in
    open-node order.  A node leaves ``open_nodes`` the moment its last port
    is used, which keeps the list equal to the historical per-link
    re-filter at one C-level ``list.remove`` per *retired node* instead of
    a Python-level O(open) pass per *added link*.  Returns False, changing
    nothing, when no pair can be linked.
    """
    if len(open_nodes) < 2:
        return False
    for _ in range(4 * len(open_nodes)):
        u, v = _sample_pair(rand, open_nodes)
        if v not in rows[u] and (allowed is None or allowed(u, v)):
            break
    else:
        pair = _first_linkable_pair(rows, open_nodes, allowed)
        if pair is None:
            return False
        u, v = pair
    rows[u][v] = True
    rows[v][u] = True
    free[u] -= 1
    if free[u] == 0:
        open_nodes.remove(u)
    free[v] -= 1
    if free[v] == 0:
        open_nodes.remove(v)
    return True


def fill_random_links(
    rows: List[dict],
    free: List[int],
    nodes: Iterable[int],
    rand,
    allowed: Optional[Callable[[int, int], bool]] = None,
) -> None:
    """Add random links among ``nodes`` until stuck; no splice repair.

    The completion of the builders that leave stuck ports free (SWDC
    shortcuts, the localized Jellyfish layers).  It gives up after the
    third failed :func:`add_random_link`; a failed step changes nothing but
    still draws its samples, so ``rand``'s later draws match the
    historical fills.
    """
    open_nodes = [node for node in nodes if free[node] > 0]
    failed = 0
    while failed < 3 and len(open_nodes) >= 2:
        if not add_random_link(rows, free, open_nodes, rand, allowed):
            failed += 1


def _complete_by_splicing(
    rows: List[dict],
    free: List[int],
    open_nodes: List[int],
    rand,
    max_stall_rounds: int,
    error,
) -> None:
    """The paper's construction loop over index-space adjacency rows.

    :func:`add_random_link` until it fails, then a splice repair, until no
    port is left free (or the repairs stall).
    """
    stall_rounds = 0
    while True:
        if add_random_link(rows, free, open_nodes, rand):
            continue
        # Stuck: no addable pair.  Splice nodes with >= 2 free ports into a
        # random existing edge (the paper's repair step).
        stuck = [u for u in open_nodes if free[u] >= 2]
        if not stuck:
            # Only nodes with a single free port remain, and they are all
            # mutual neighbours.  If there are at least two of them the graph
            # can still be completed by rewiring one existing edge.
            if not _repair_single_port_pair(rows, free, open_nodes, rand):
                break
            continue
        node = rand.choice(stuck)
        edge_list = _edges_in_iteration_order(rows)
        rand.shuffle(edge_list)
        spliced = False
        node_row = rows[node]
        for x, y in edge_list:
            if node == x or node == y or x in node_row or y in node_row:
                continue
            del rows[x][y]
            del rows[y][x]
            node_row[x] = True
            rows[x][node] = True
            node_row[y] = True
            rows[y][node] = True
            free[node] -= 2
            if free[node] == 0:
                open_nodes.remove(node)
            spliced = True
            count("rrg.splice_repairs")
            break
        if not spliced:
            stall_rounds += 1
            if stall_rounds > max_stall_rounds:
                raise GraphConstructionError(error() if callable(error) else error)


def _repair_single_port_pair(
    rows: List[dict], free: List[int], open_nodes: List[int], rand
) -> bool:
    """Resolve the end-game where several adjacent nodes each have one free port.

    Picks two such nodes u and v and an existing edge (x, y) disjoint from
    them with x not adjacent to u and y not adjacent to v; replaces (x, y)
    with (u, x) and (v, y).  Returns True if a repair was applied.
    """
    singles = [u for u in open_nodes if free[u] == 1]
    if len(singles) < 2:
        return False
    rand.shuffle(singles)
    for i, u in enumerate(singles):
        row_u = rows[u]
        for v in singles[i + 1:]:
            row_v = rows[v]
            edge_list = _edges_in_iteration_order(rows)
            rand.shuffle(edge_list)
            for x, y in edge_list:
                if u == x or u == y or v == x or v == y:
                    continue
                for first, second in ((x, y), (y, x)):
                    if first not in row_u and second not in row_v:
                        del rows[x][y]
                        del rows[y][x]
                        row_u[first] = True
                        rows[first][u] = True
                        row_v[second] = True
                        rows[second][v] = True
                        consume = free[u] = free[u] - 1
                        if consume == 0:
                            open_nodes.remove(u)
                        consume = free[v] = free[v] - 1
                        if consume == 0:
                            open_nodes.remove(v)
                        count("rrg.single_port_repairs")
                        return True
    return False


def graph_from_rows(labels: Iterable[Hashable], rows: List[dict]) -> nx.Graph:
    """Materialize an ``nx.Graph`` whose adjacency order equals ``rows``.

    ``rows[i]`` holds the neighbors of ``labels[i]`` as index keys in the
    exact insertion order the equivalent sequence of
    ``add_edge``/``remove_edge`` calls would have left in a live
    ``nx.Graph``.  Replaying ``add_edge`` row-by-row cannot reproduce that
    interleaved order (it would fill each row completely before the next),
    so the rows are written into ``graph._adj`` directly, with one shared
    attribute dict per undirected edge exactly as ``add_edge`` would create.
    A parity test pins this materialization against a chronological
    ``add_edge`` replay.
    """
    labels = list(labels)
    graph = nx.Graph()
    graph.add_nodes_from(labels)
    adj = graph._adj
    make_attrs = graph.edge_attr_dict_factory
    edge_attrs: dict = {}
    for i, label in enumerate(labels):
        target = adj[label]
        for j in rows[i]:
            key = (i, j) if i < j else (j, i)
            data = edge_attrs.get(key)
            if data is None:
                data = edge_attrs[key] = make_attrs()
            target[labels[j]] = data
    return graph


# --------------------------------------------------------------------------- #
# Public constructors
# --------------------------------------------------------------------------- #
def sequential_random_regular_rows(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
) -> List[dict]:
    """Index-space adjacency rows of the paper's sequential construction.

    This is the array-native entry point used by
    :class:`repro.topologies.core.TopologyCore`; the rng stream and the
    resulting adjacency (including insertion order) are bit-identical to the
    retained reference implementation.
    """
    _validate_regular_params(num_nodes, degree)
    rand = ensure_rng(rng)
    rows: List[dict] = [{} for _ in range(num_nodes)]
    if num_nodes == 0 or degree == 0:
        return rows
    free = [degree] * num_nodes
    open_nodes = list(range(num_nodes))
    with trace("rrg.sequential", nodes=num_nodes, degree=degree):
        _complete_by_splicing(
            rows,
            free,
            open_nodes,
            rand,
            max_stall_rounds,
            error=(
                "could not complete regular graph construction "
                f"(num_nodes={num_nodes}, degree={degree})"
            ),
        )
    return rows


def sequential_random_regular_graph(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
) -> nx.Graph:
    """Build an (approximately uniform) random ``degree``-regular graph.

    This is the construction procedure from the Jellyfish paper: join random
    pairs of non-adjacent nodes that both have free ports; when no such pair
    exists but some node still has >= 2 free ports, remove a random existing
    link (x, y) not incident to that node and add links to both x and y.

    The result is connected and exactly regular for all parameter choices
    used in the paper (it may leave a single free port when ``degree`` is odd
    and an odd number of stubs remains, matching the paper's description).
    """
    rows = sequential_random_regular_rows(num_nodes, degree, rng, max_stall_rounds)
    return graph_from_rows(range(num_nodes), rows)


def random_graph_with_degree_budget(
    budgets: Dict,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
) -> nx.Graph:
    """Random graph where node ``v`` gets (up to) ``budgets[v]`` links.

    This generalizes the paper's construction to heterogeneous degrees (used
    when servers are spread unevenly over switches, or when switches have
    different port counts): join random pairs of non-adjacent nodes that both
    have unused budget, then splice stuck nodes (>= 2 free ports) into random
    existing links.  As in the regular case, at most one free port may remain
    unmatched per stuck node when the graph becomes saturated.
    """
    rows, labels = random_graph_with_degree_budget_rows(
        budgets, rng, max_stall_rounds
    )
    return graph_from_rows(labels, rows)


def random_graph_with_degree_budget_rows(
    budgets: Dict,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
):
    """Index-space rows + label list of the degree-budget construction."""
    rand = ensure_rng(rng)
    labels = list(budgets)
    num_nodes = len(labels)
    for node, budget in budgets.items():
        if budget < 0:
            raise ValueError(f"negative degree budget for node {node!r}")
        if budget >= num_nodes and budget > 0:
            raise ValueError(
                f"degree budget for node {node!r} ({budget}) is not realizable "
                f"with {num_nodes} nodes"
            )

    rows: List[dict] = [{} for _ in range(num_nodes)]
    free = [budgets[label] for label in labels]
    open_nodes = [i for i in range(num_nodes) if free[i] > 0]

    def describe_remaining() -> str:
        remaining = {
            labels[i]: free[i] for i in range(num_nodes) if free[i] > 0
        }
        return f"could not satisfy the degree budgets (remaining: {remaining})"

    with trace("rrg.degree_budget", nodes=num_nodes):
        _complete_by_splicing(
            rows, free, open_nodes, rand, max_stall_rounds, error=describe_remaining
        )
    return rows, labels


def stub_matching_regular_rows(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
) -> List[dict]:
    """Vectorized stub matching with the paper's splice repair (rows form).

    One numpy permutation pairs all ``num_nodes * degree`` stubs at once;
    self-loop pairs and pairs duplicating an earlier edge are dropped in a
    single vectorized pass (first occurrence wins, matching the scalar
    reference's scan order), and whatever free ports remain are completed
    with the same splice-repair loop the sequential construction uses.  The
    numpy ``Generator`` is seeded with one 64-bit draw from ``rng``, so the
    whole construction is a pure function of the Python seed and is pinned
    bit-identical to the scalar reference in ``tests/oracles/graphs.py``.
    """
    _validate_regular_params(num_nodes, degree)
    rand = ensure_rng(rng)
    rows: List[dict] = [{} for _ in range(num_nodes)]
    if num_nodes == 0 or degree == 0:
        return rows

    with trace("rrg.stub_matching", nodes=num_nodes, degree=degree):
        np_rng = np.random.default_rng(rand.getrandbits(64))
        stubs = np.repeat(np.arange(num_nodes, dtype=np.int64), degree)
        paired = stubs[np_rng.permutation(stubs.shape[0])]
        u = paired[0::2]
        v = paired[1::2]
        # First-occurrence dedup of undirected pairs, excluding self-loops:
        # the scalar scan adds pair i iff u != v and no earlier pair had the
        # same endpoints.  np.unique's return_index gives exactly those
        # survivors.
        keys = np.minimum(u, v) * np.int64(num_nodes) + np.maximum(u, v)
        valid = np.flatnonzero(u != v)
        _, first = np.unique(keys[valid], return_index=True)
        keep = np.sort(valid[first])

        for a, b in zip(u[keep].tolist(), v[keep].tolist()):
            rows[a][b] = True
            rows[b][a] = True

        endpoint_counts = np.bincount(
            np.concatenate((u[keep], v[keep])), minlength=num_nodes
        )
        free = (degree - endpoint_counts).tolist()
        open_nodes = [i for i in range(num_nodes) if free[i] > 0]
        if open_nodes:
            _complete_by_splicing(
                rows,
                free,
                open_nodes,
                rand,
                max_stall_rounds,
                error=(
                    "could not complete stub-matching construction "
                    f"(num_nodes={num_nodes}, degree={degree})"
                ),
            )
    return rows


def stub_matching_regular_graph(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    max_stall_rounds: int = 1000,
) -> nx.Graph:
    """Vectorized stub-matching random regular graph (see the rows variant)."""
    rows = stub_matching_regular_rows(num_nodes, degree, rng, max_stall_rounds)
    return graph_from_rows(range(num_nodes), rows)


def pairing_model_regular_graph(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    max_attempts: int = 200,
) -> nx.Graph:
    """Sample a random regular graph via the configuration (pairing) model.

    Stubs are matched uniformly at random.  When the next stub pair would
    create a self-loop or a parallel edge, a compatible partner is searched
    among the remaining stubs (a standard practical repair of the pairing
    model); only if no compatible partner exists is the sample rejected and
    retried.  Provided as an ablation baseline against the paper's sequential
    construction.
    """
    _validate_regular_params(num_nodes, degree)
    rand = ensure_rng(rng)

    if num_nodes == 0 or degree == 0:
        graph = nx.Graph()
        graph.add_nodes_from(range(num_nodes))
        return graph

    for _ in range(max_attempts):
        stubs = [node for node in range(num_nodes) for _ in range(degree)]
        rand.shuffle(stubs)
        graph = nx.Graph()
        graph.add_nodes_from(range(num_nodes))
        simple = True
        while stubs:
            u = stubs.pop()
            partner_index = None
            for index in range(len(stubs) - 1, -1, -1):
                v = stubs[index]
                if v != u and not graph.has_edge(u, v):
                    partner_index = index
                    break
            if partner_index is None:
                simple = False
                break
            v = stubs.pop(partner_index)
            graph.add_edge(u, v)
        if simple:
            return graph
    raise GraphConstructionError(
        f"pairing model failed after {max_attempts} attempts "
        f"(num_nodes={num_nodes}, degree={degree})"
    )


def random_regular_graph(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    method: str = "sequential",
) -> nx.Graph:
    """Build a random ``degree``-regular graph on ``num_nodes`` nodes.

    ``method`` selects the construction (see :func:`regular_rows`).
    """
    return graph_from_rows(range(num_nodes), regular_rows(num_nodes, degree, rng, method))


def regular_rows(
    num_nodes: int,
    degree: int,
    rng: RngLike = None,
    method: str = "sequential",
) -> List[dict]:
    """Index-space adjacency rows of a random ``degree``-regular graph.

    ``method`` is one of the constructions listed in the module docstring;
    the two ablations build an ``nx.Graph`` whose adjacency order the rows
    copy.
    """
    if method == "sequential":
        return sequential_random_regular_rows(num_nodes, degree, rng)
    if method == "stubs":
        return stub_matching_regular_rows(num_nodes, degree, rng)
    if method == "pairing":
        graph = pairing_model_regular_graph(num_nodes, degree, rng)
    elif method == "networkx":
        _validate_regular_params(num_nodes, degree)
        if num_nodes == 0 or degree == 0:
            return [{} for _ in range(num_nodes)]
        seed = ensure_rng(rng).randrange(2**32)
        graph = nx.random_regular_graph(degree, num_nodes, seed=seed)
    else:
        raise ValueError(f"unknown construction method: {method!r}")
    return [dict.fromkeys(graph.adj[node], True) for node in range(num_nodes)]


def is_regular(graph: nx.Graph, degree: Optional[int] = None) -> bool:
    """Return True if every node of ``graph`` has the same degree.

    If ``degree`` is given, additionally require that common degree to equal
    it.
    """
    degrees = {d for _, d in graph.degree()}
    if not degrees:
        return True
    if len(degrees) != 1:
        return False
    if degree is None:
        return True
    return degrees.pop() == degree
