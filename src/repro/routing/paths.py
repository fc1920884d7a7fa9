"""Per-pair path tables.

A :class:`PathSet` is the routing state a deployment would install (via
OpenFlow rules, SPAIN VLANs or MPLS tunnels, Section 5.3): for each
(source switch, destination switch) pair, an ordered list of usable paths.
Both the LP-based throughput harness and the fluid simulator consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.graphs.csr import CSRGraph
from repro.memo import Memo
from repro.routing.ecmp import ecmp_paths
from repro.routing.ksp import Path, all_pairs_k_shortest_paths

Pair = Tuple[Hashable, Hashable]

#: Shared path tables (see :func:`shared_path_set`) as ``(table, stored
#: paths)`` entries, bounded by table count and by total stored paths.  A
#: k=8 KSP table over a 180-switch all-pairs sweep holds ~258k paths; the
#: budget admits a couple of those plus change, so week-long sweeps over
#: many topologies recycle table slots instead of accreting every table
#: they ever built.
_SHARED_PATH_SETS = Memo(
    "routing.path_sets", max_entries=16, budget=600_000, cost=itemgetter(1)
)


@dataclass
class PathSet:
    """Ordered candidate paths for each switch pair."""

    paths: Dict[Pair, List[Path]] = field(default_factory=dict)
    kind: str = "custom"

    def __getitem__(self, pair: Pair) -> List[Path]:
        return self.paths[pair]

    def get(self, pair: Pair, default=None):
        return self.paths.get(pair, default)

    def pairs(self) -> Iterable[Pair]:
        return self.paths.keys()

    def __len__(self) -> int:
        return len(self.paths)

    def add(self, pair: Pair, path: Path) -> None:
        self.paths.setdefault(pair, []).append(tuple(path))


def build_path_set(
    csr: CSRGraph,
    pairs: Sequence[Pair],
    scheme: str = "ksp",
    k: int = 8,
    on_unreachable: str = "raise",
) -> PathSet:
    """Build a :class:`PathSet` for the given pairs.

    ``scheme`` is ``"ksp"`` for Yen's k-shortest paths or ``"ecmp"`` for
    w-way equal-cost shortest paths (``k`` doubles as the ECMP width).
    ``csr`` is the switch graph's view (a topology's
    :meth:`~repro.topologies.base.Topology.csr`).  KSP queries go through
    :func:`~repro.routing.ksp.all_pairs_k_shortest_paths`, which shares one
    BFS tree across the targets of each source.

    ``on_unreachable`` selects the degradation semantics for pairs with no
    path (a partitioned graph): ``"raise"`` (historical default) raises
    ``ValueError``; ``"skip"`` leaves the pair out of the table, which the
    flow and simulation engines report as zero throughput (the degradation
    contract in ``docs/robustness.md``).
    """
    if scheme not in ("ksp", "ecmp"):
        raise ValueError(f"unknown routing scheme {scheme!r}")
    distinct = [(source, target) for source, target in pairs if source != target]
    table: Dict[Pair, List[Path]] = {}
    _extend_table(csr, table, distinct, scheme, k, on_unreachable)
    return PathSet(paths=table, kind=f"{scheme}-{k}")


def _extend_table(
    csr: CSRGraph,
    table: Dict[Pair, List[Path]],
    pending: Sequence[Pair],
    scheme: str,
    k: int,
    on_unreachable: str = "raise",
) -> None:
    """Compute and store paths for ``pending`` pairs.

    Pairs with no path either raise (``on_unreachable="raise"``) or are
    skipped -- never stored -- so a skip-mode table holds routes exactly
    for the reachable pairs.
    """
    if on_unreachable not in ("raise", "skip"):
        raise ValueError(
            f"on_unreachable must be 'raise' or 'skip', got {on_unreachable!r}"
        )
    if scheme == "ksp":
        computed = all_pairs_k_shortest_paths(csr, pending, k)
        for pair in pending:
            options = computed[pair]
            if not options:
                if on_unreachable == "skip":
                    continue
                raise ValueError(f"no path between {pair[0]!r} and {pair[1]!r}")
            table[pair] = options
    else:
        for source, target in pending:
            options = ecmp_paths(csr, source, target, width=k)
            if not options:
                if on_unreachable == "skip":
                    continue
                raise ValueError(f"no path between {source!r} and {target!r}")
            table[(source, target)] = options


def shared_path_set(
    csr: CSRGraph,
    pairs: Sequence[Pair],
    scheme: str = "ksp",
    k: int = 8,
    on_unreachable: str = "raise",
) -> PathSet:
    """A :class:`PathSet` shared across calls for structurally equal graphs.

    ``csr`` is the switch graph's view (a topology's
    :meth:`~repro.topologies.base.Topology.csr`).  Tables are cached in a
    small LRU keyed by its ``content_hash`` plus ``(scheme, k)`` — the same
    content-addressing discipline as the engine's result cache — and
    extended lazily: only pairs not yet present are routed.  Because paths
    are a pure function of the graph structure, a throughput sweep that
    evaluates several traffic matrices (or re-solves an identical topology)
    pays for each pair's route enumeration once instead of once per matrix.

    The returned table is shared state: callers must treat it as read-only.
    A changed topology has a new view with a new content hash, so a stale
    table is never returned.

    ``on_unreachable="skip"`` applies the degradation semantics of
    :func:`build_path_set`: unreachable pairs are left out of the table
    (and re-probed on later calls, since absence is how "unreachable" is
    represented).
    """
    if scheme not in ("ksp", "ecmp"):
        raise ValueError(f"unknown routing scheme {scheme!r}")
    key = (csr.content_hash, scheme, k)
    entry = _SHARED_PATH_SETS.get(key)
    table = PathSet(paths={}, kind=f"{scheme}-{k}") if entry is None else entry[0]
    pending = [
        (source, target)
        for source, target in pairs
        if source != target and (source, target) not in table.paths
    ]
    if pending:
        _extend_table(csr, table.paths, pending, scheme, k, on_unreachable)
    if entry is None or pending:
        stored = sum(len(options) for options in table.paths.values())
        _SHARED_PATH_SETS.put(key, (table, stored))
    return table
