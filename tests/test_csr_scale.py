"""Memory-bounded kernel contracts (streaming BFS, index promotion, LRU memos).

The hyperscale mode's correctness rests on three invariants this suite pins:

* **Streaming parity** — chunking the multi-source BFS under an arbitrarily
  tiny scratch budget changes memory behaviour only: distance matrices are
  bit-identical to the unconstrained kernel, block boundaries and all.
* **No silent index overflow** — ``index_dtype`` promotes to int64 past the
  int32 range, and ``CSRGraph.from_arrays`` rejects arrays whose ``indptr``
  betrays a wrapped 32-bit cumulative sum.
* **Bounded caches** — the distance-row memo and the shared path-set memo
  evict LRU entries past their budgets, never the entry just stored, count
  exactly the bytes or paths they hold, and surface their evictions in
  :func:`repro.memo.memo_stats` (and through ``repro stats`` telemetry).
"""

import numpy as np
import pytest

from repro.graphs.csr import (
    DEFAULT_DIST_MEMO_BYTES,
    DIST_ROW_MEMO,
    CSRGraph,
    bfs_source_chunk,
    csr_graph,
    distance_memo_stats,
    index_dtype,
)
from repro.graphs.properties import average_path_length
from repro.memo import clear_memos, memo_stats
from repro.resources import ExecutionProfile, activate_profile
from repro.routing.paths import shared_path_set
from repro.topologies.ensemble import single_rrg_core
from repro.topologies.jellyfish import JellyfishTopology


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_memos()
    yield
    clear_memos()


def _memory_scale_for(budget: int, default: int) -> ExecutionProfile:
    """A profile that scales a ``default`` memo bound down to ``budget``."""
    return ExecutionProfile(memory_scale=budget / default)


# --------------------------------------------------------------------------- #
# Streaming BFS under a scratch budget
# --------------------------------------------------------------------------- #
def test_tiny_scratch_budget_is_bit_identical():
    csr = single_rrg_core(150, 12, 9, seed=11).csr()
    reference = csr.hop_distance_matrix()
    streamed = csr.hop_distance_matrix(scratch_bytes=1)
    np.testing.assert_array_equal(reference, streamed)


def test_streamed_blocks_reassemble_the_matrix():
    csr = single_rrg_core(100, 12, 9, seed=3).csr()
    sources = [0, 5, 17, 40, 99]
    reference = csr.hop_distance_matrix(sources)
    rows = {}
    for chunk, block in csr.iter_hop_distance_blocks(sources, scratch_bytes=1):
        assert len(chunk) <= bfs_source_chunk(
            csr.num_nodes, len(csr.indices), scratch_bytes=1
        )
        for offset, source in enumerate(chunk.tolist()):
            rows[source] = block[offset]
    assert sorted(rows) == sources
    for position, source in enumerate(sources):
        np.testing.assert_array_equal(reference[position], rows[source])


def test_bfs_source_chunk_respects_budget_and_floors():
    # A byte budget always yields at least one 64-source word.
    assert bfs_source_chunk(10_000, 360_000, scratch_bytes=1) == 64
    # A generous budget caps at the historical 4096-source chunk.
    assert bfs_source_chunk(100, 900, scratch_bytes=2**40) == 4096
    # In between, the chunk is a multiple of 64 that fits the budget.
    chunk = bfs_source_chunk(100_000, 3_600_000, scratch_bytes=256 * 2**20)
    assert chunk % 64 == 0
    per_word = 8 * (3_600_000 + 1) + 16 * 100_000 + 256 * 100_000
    assert (chunk // 64) * per_word <= 256 * 2**20


# --------------------------------------------------------------------------- #
# Index dtype promotion / overflow guards
# --------------------------------------------------------------------------- #
def test_index_dtype_promotes_past_int32():
    assert index_dtype(1000, 36_000) == np.dtype(np.int32)
    assert index_dtype(2**31, 10) == np.dtype(np.int64)
    assert index_dtype(10, 2**31) == np.dtype(np.int64)
    # Exactly the limit still fits.
    assert index_dtype(np.iinfo(np.int32).max, 10) == np.dtype(np.int32)


def test_from_arrays_rejects_wrapped_indptr():
    # Simulate the signature of an int32-overflowed cumsum: final offset
    # disagrees with the adjacency length.
    nodes = [0, 1, 2]
    index_of = {node: node for node in nodes}
    indices = np.array([1, 0, 2, 1], dtype=np.int32)
    bad_indptr = np.array([0, 2, 3, 2], dtype=np.int32)
    with pytest.raises(ValueError, match="int32 overflow"):
        CSRGraph.from_arrays(nodes, index_of, bad_indptr, indices)
    with pytest.raises(ValueError, match="does not match"):
        CSRGraph.from_arrays(nodes, index_of, np.array([0, 2, 4], dtype=np.int32), indices)


def test_from_arrays_promotes_dtype_consistently():
    csr = single_rrg_core(50, 8, 5, seed=0).csr()
    assert csr.indptr.dtype == csr.indices.dtype == index_dtype(50, len(csr.indices))


# --------------------------------------------------------------------------- #
# Distance-row memo: bounded, content-addressed, observable
# --------------------------------------------------------------------------- #
def test_distance_memo_reports_hits_misses():
    csr = single_rrg_core(60, 8, 5, seed=1).csr()
    baseline = distance_memo_stats()
    assert baseline["entries"] == 0
    csr.distance_row(0)
    csr.distance_row(0)
    stats = distance_memo_stats()
    assert stats["entries"] == 1
    assert stats["hits"] >= 1
    assert stats["misses"] >= 1
    assert stats["evictions"] == 0


def test_distance_memo_evicts_lru_past_budget():
    csr = single_rrg_core(100, 8, 5, seed=1).csr()  # 400-byte rows
    with activate_profile(_memory_scale_for(1000, DEFAULT_DIST_MEMO_BYTES)):
        for source in (0, 1, 2):
            csr.distance_row(source)  # the third row takes 1200 bytes > 1000
    stats = distance_memo_stats()
    assert stats["entries"] == 2
    assert stats["evictions"] == 1
    assert stats["cost"] == 800
    # LRU order: source 0 was oldest, so it went first.
    assert DIST_ROW_MEMO.get((csr.content_hash, 0)) is None
    assert DIST_ROW_MEMO.get((csr.content_hash, 1)) is not None
    assert DIST_ROW_MEMO.get((csr.content_hash, 2)) is not None
    # A row over the whole budget is still stored: it evicts everything else.
    with activate_profile(ExecutionProfile(memory_scale=1e-12)):
        csr.distance_row(3)
    assert distance_memo_stats()["entries"] == 1


def test_distance_memo_accounts_the_bytes_it_holds():
    csr = single_rrg_core(1200, 12, 9, seed=5).csr()
    row_bytes = 4 * csr.num_nodes
    with activate_profile(_memory_scale_for(2 * row_bytes, DEFAULT_DIST_MEMO_BYTES)):
        average_path_length(csr)  # one batched all-pairs BFS
    stats = distance_memo_stats()
    assert stats["evictions"] == csr.num_nodes - 2
    # A stored row that were a view would pin its whole distance matrix.
    held = {}
    for row in DIST_ROW_MEMO._entries.values():
        owner = row if row.base is None else row.base
        held[id(owner)] = owner.nbytes
    assert stats["cost"] == sum(held.values()) == 2 * row_bytes


def test_structurally_equal_graphs_share_memo_rows():
    topo_a = JellyfishTopology.build(30, 8, 5, rng=7)
    topo_b = JellyfishTopology.build(30, 8, 5, rng=7)
    csr_a = topo_a.csr()
    csr_b = csr_graph(topo_b.graph)
    assert csr_a.content_hash == csr_b.content_hash
    csr_a.distance_row(3)
    before = distance_memo_stats()["misses"]
    csr_b.distance_row(3)
    stats = distance_memo_stats()
    assert stats["misses"] == before
    assert stats["hits"] >= 1


# --------------------------------------------------------------------------- #
# Shared path-set memo: entry cap + total-path budget
# --------------------------------------------------------------------------- #
def test_pathset_budget_evicts_lru_tables(monkeypatch):
    import repro.routing.paths as paths_module

    monkeypatch.setattr(paths_module._SHARED_PATH_SETS, "budget", 40)
    topologies = [JellyfishTopology.build(12, 6, 3, rng=seed) for seed in range(4)]
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    for topology in topologies:
        shared_path_set(topology.csr(), pairs, scheme="ksp", k=2)
    stats = memo_stats()["routing.path_sets"]
    assert stats["evictions"] >= 1
    assert stats["entries"] < 4
    assert stats["cost"] <= 40 or stats["entries"] == 1


def test_pathset_never_evicts_current_table(monkeypatch):
    import repro.routing.paths as paths_module

    monkeypatch.setattr(paths_module._SHARED_PATH_SETS, "budget", 1)
    topology = JellyfishTopology.build(12, 6, 3, rng=0)
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    shared_path_set(topology.csr(), pairs[:4], scheme="ksp", k=2)
    table = shared_path_set(topology.csr(), pairs, scheme="ksp", k=2)
    assert len(table) == len(pairs)
    stats = memo_stats()["routing.path_sets"]
    assert stats["entries"] == 1  # one oversized table survives alone
    # The lazily extended table is counted at its current size.
    assert stats["cost"] == sum(len(options) for options in table.paths.values())
