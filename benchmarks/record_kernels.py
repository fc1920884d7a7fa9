"""Record the kernel perf trajectory: old implementations vs CSR kernels.

Times the pre-CSR pure-Python implementations (kept in
``tests/oracles/routing.py``) against the CSR kernels on representative
graph sizes and writes ``benchmarks/BENCH_kernels.json``.  Run it after
touching anything under ``repro.graphs.csr`` or the routing hot paths:

    PYTHONPATH=src python benchmarks/record_kernels.py            # all sizes (~minutes)
    PYTHONPATH=src python benchmarks/record_kernels.py --quick    # skip fig05 paper sizes

A ``--quick`` run prints the comparison but refuses to overwrite the
committed snapshot (pass ``--output`` explicitly to write one), so the
paper-scale rows backing the recorded trajectory never vanish silently.

The Yen rows time a query on a built CSR view; each call enumerates its
paths again (pure kernel speed).  The ``yen_k_shortest_paths_warm`` rows in
older snapshots timed a per-view route memo that has since been removed.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # oracles

from repro.telemetry.manifest import peak_rss_kb
from timing import best_of

from repro.graphs.csr import csr_graph
from repro.routing.ksp import k_shortest_paths
from repro.topologies.jellyfish import JellyfishTopology

from oracles.routing import (
    all_pairs_hop_distances_reference,
    k_shortest_paths_reference,
)

OUTPUT = Path(__file__).resolve().parent / "BENCH_kernels.json"


def _best_of(callable_, repeats: int) -> float:
    """Shared-clock best-of timing (see :func:`timing.best_of`)."""
    return best_of(callable_, repeats)


def _bfs_case(
    num_switches: int, ports: int, degree: int, repeats: int, repeats_old: int = None
) -> dict:
    topology = JellyfishTopology.build(num_switches, ports, degree, rng=0)
    graph = topology.graph
    csr = csr_graph(graph)  # built once: a topology keeps its view across queries
    new_seconds = _best_of(csr.hop_distance_matrix, repeats)
    old_seconds = _best_of(
        lambda: all_pairs_hop_distances_reference(graph),
        repeats if repeats_old is None else repeats_old,
    )
    return {
        "kernel": "all_pairs_hop_distances",
        "graph": f"jellyfish n={num_switches} r={degree}",
        "num_nodes": num_switches,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _yen_case(num_switches: int, ports: int, degree: int, repeats: int) -> dict:
    topology = JellyfishTopology.build(num_switches, ports, degree, rng=2)
    graph = topology.graph
    nodes = sorted(graph.nodes)
    source, target = nodes[0], nodes[-1]
    old_seconds = _best_of(
        lambda: k_shortest_paths_reference(graph, source, target, 8), repeats
    )
    csr = csr_graph(graph)
    cold_seconds = _best_of(lambda: k_shortest_paths(csr, source, target, 8), repeats)
    return {
        "kernel": "yen_k_shortest_paths_cold",
        "graph": f"jellyfish n={num_switches} r={degree}",
        "num_nodes": num_switches,
        "old_seconds": old_seconds,
        "new_seconds": cold_seconds,
        "speedup": old_seconds / cold_seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip fig05 paper-scale graphs; prints only unless --output is given",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    cases = []
    cases.append(_bfs_case(100, 48, 36, repeats=5))
    cases.append(_bfs_case(400, 48, 36, repeats=3))
    cases.append(_bfs_case(800, 48, 36, repeats=3))
    if not args.quick:
        cases.append(_bfs_case(1600, 48, 36, repeats=3, repeats_old=2))
        cases.append(_bfs_case(3200, 48, 36, repeats=3, repeats_old=2))
    cases.append(_yen_case(100, 10, 6, repeats=50))
    cases.append(_yen_case(400, 24, 12, repeats=20))


    # Every snapshot row carries the recorder's RSS high-water mark at the
    # time the row set completed (ru_maxrss is process-monotonic, so this is
    # an upper bound per row, not a per-case footprint).
    for case in cases:
        case["peak_rss_kb"] = peak_rss_kb()
    for case in cases:
        print(
            f"{case['kernel']:<28} {case['graph']:<24} "
            f"old {case['old_seconds'] * 1e3:9.3f} ms  "
            f"new {case['new_seconds'] * 1e3:9.3f} ms  "
            f"{case['speedup']:7.1f}x"
        )
    output = args.output
    if output is None:
        if args.quick:
            print("quick run: snapshot not written (pass --output to record one)")
            return 0
        output = OUTPUT
    snapshot = {
        "schema": 1,
        "generated_unix": int(time.time()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": cases,
    }
    output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
