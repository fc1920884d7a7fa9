"""Record the topology-layer perf trajectory: reference vs array-native.

Times the retained pre-refactor constructors (``tests/oracles/graphs.py``
and ``add_switch_reference`` in ``tests/oracles/topologies.py``) against the
array-native topology layer on fig05-scale inputs and writes
``benchmarks/BENCH_topology.json``.  Run it after touching anything under
``repro.graphs.regular``, ``repro.topologies.core`` or the ensemble
subsystem:

    PYTHONPATH=src python benchmarks/record_topology.py            # full sizes (~minutes)
    PYTHONPATH=src python benchmarks/record_topology.py --quick    # small sizes only

A ``--quick`` run prints the comparison but refuses to overwrite the
committed snapshot (pass ``--output`` explicitly to write one), so the
fig05-scale rows backing the recorded trajectory never vanish silently.

Cases:

* ``rrg_sequential_construction`` -- the paper's sequential RRG at fig05
  scale (3200 switches, r=36): historical per-edge networkx loop vs the
  seed-compatible array-native core.  The produced edge sets are asserted
  identical.
* ``rrg_stub_matching`` -- the vectorized stub-matching constructor vs its
  scalar reference at the same scale.
* ``degree_budget_construction`` -- the heterogeneous (from_equipment)
  construction at fig01 paper equipment scale.
* ``jellyfish_expand`` -- incremental expansion: quadratic per-splice
  candidate rebuild vs the rank-selectable candidate set.
* ``ensemble_build_100`` -- a 100-instance ensemble build: per-instance
  reference loops vs ``rrg_core`` over the spawned instance seeds; a second
  row compares the sequential and stub-matching methods inside the new path.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # oracles

from repro.telemetry.manifest import peak_rss_kb
from timing import best_of

from repro.graphs.regular import (
    random_graph_with_degree_budget,
    random_graph_with_degree_budget_rows,
    sequential_random_regular_graph,
    sequential_random_regular_rows,
    stub_matching_regular_graph,
    stub_matching_regular_rows,
)
from repro.topologies.jellyfish import JellyfishTopology, rrg_core
from repro.utils.rng import spawn_seeds

from oracles.graphs import (
    random_graph_with_degree_budget_reference,
    sequential_random_regular_graph_reference,
    stub_matching_regular_graph_reference,
)
from oracles.topologies import add_switch_reference

OUTPUT = Path(__file__).resolve().parent / "BENCH_topology.json"


def _best_of(callable_, repeats: int) -> float:
    """Shared-clock best-of timing (see :func:`timing.best_of`)."""
    return best_of(callable_, repeats)


def _assert_same_edges(fast, reference) -> None:
    if list(fast.edges) != list(reference.edges):
        raise RuntimeError("fast and reference constructions diverged")


def _sequential_case(num_nodes: int, degree: int, repeats: int, repeats_old: int) -> dict:
    """Reference nx.Graph build vs array-native rows build (same seed).

    Each side is timed to its evaluation-ready form: the historical path
    must finish with a live ``nx.Graph``; the array-native path feeds the
    CSR kernels from the rows directly and only materializes on demand.
    """
    _assert_same_edges(
        sequential_random_regular_graph(num_nodes, degree, random.Random(0)),
        sequential_random_regular_graph_reference(num_nodes, degree, random.Random(0)),
    )
    new_seconds = _best_of(
        lambda: sequential_random_regular_rows(num_nodes, degree, random.Random(0)),
        repeats,
    )
    old_seconds = _best_of(
        lambda: sequential_random_regular_graph_reference(
            num_nodes, degree, random.Random(0)
        ),
        repeats_old,
    )
    return {
        "kernel": "rrg_sequential_construction",
        "graph": f"RRG n={num_nodes} r={degree}",
        "num_nodes": num_nodes,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _stub_case(num_nodes: int, degree: int, repeats: int, repeats_old: int) -> dict:
    """Scalar stub-matching reference vs the vectorized kernel (same seed)."""
    _assert_same_edges(
        stub_matching_regular_graph(num_nodes, degree, random.Random(0)),
        stub_matching_regular_graph_reference(num_nodes, degree, random.Random(0)),
    )
    new_seconds = _best_of(
        lambda: stub_matching_regular_rows(num_nodes, degree, random.Random(0)),
        repeats,
    )
    old_seconds = _best_of(
        lambda: stub_matching_regular_graph_reference(
            num_nodes, degree, random.Random(0)
        ),
        repeats_old,
    )
    return {
        "kernel": "rrg_stub_matching",
        "graph": f"RRG n={num_nodes} r={degree}",
        "num_nodes": num_nodes,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _budget_case(num_switches: int, ports: int, num_servers: int, repeats: int, repeats_old: int) -> dict:
    base = num_servers // num_switches
    extra = num_servers % num_switches
    budgets = {
        node: min(ports - (base + (1 if node < extra else 0)), num_switches - 1)
        for node in range(num_switches)
    }
    _assert_same_edges(
        random_graph_with_degree_budget(budgets, random.Random(0)),
        random_graph_with_degree_budget_reference(budgets, random.Random(0)),
    )
    new_seconds = _best_of(
        lambda: random_graph_with_degree_budget_rows(budgets, random.Random(0)),
        repeats,
    )
    old_seconds = _best_of(
        lambda: random_graph_with_degree_budget_reference(budgets, random.Random(0)),
        repeats_old,
    )
    return {
        "kernel": "degree_budget_construction",
        "graph": f"equipment n={num_switches} k={ports} servers={num_servers}",
        "num_nodes": num_switches,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _expand_case(num_nodes: int, degree: int, new_switches: int, repeats: int, repeats_old: int) -> dict:
    ports = degree + 3

    def run_new():
        topology = JellyfishTopology.build(num_nodes, ports, degree, rng=1)
        rng = random.Random(2)
        for offset in range(new_switches):
            topology.add_switch(("new", offset), ports, servers=1, rng=rng, validate=False)
        topology.validate()
        return topology

    def run_old():
        topology = JellyfishTopology.build(num_nodes, ports, degree, rng=1)
        rng = random.Random(2)
        for offset in range(new_switches):
            add_switch_reference(topology, ("new", offset), ports, servers=1, rng=rng)
        return topology

    fast, reference = run_new(), run_old()
    _assert_same_edges(fast.graph, reference.graph)
    new_seconds = _best_of(run_new, repeats)
    old_seconds = _best_of(run_old, repeats_old)
    # Subtract nothing: both timings include the identical base build, so the
    # reported speedup understates the pure splice-loop gain.
    return {
        "kernel": "jellyfish_expand",
        "graph": f"RRG n={num_nodes} r={degree} + {new_switches} switches",
        "num_nodes": num_nodes,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _ensemble_cases(num_instances: int, num_nodes: int, degree: int, ports: int, repeats: int) -> list:
    instance_seeds = spawn_seeds(0, num_instances)

    def build_reference():
        for instance_seed in instance_seeds:
            sequential_random_regular_graph_reference(
                num_nodes, degree, random.Random(instance_seed)
            )

    def build_sequential():
        for instance_seed in instance_seeds:
            rrg_core(num_nodes, ports, degree, instance_seed)

    def build_stubs():
        for instance_seed in instance_seeds:
            rrg_core(num_nodes, ports, degree, instance_seed, method="stubs")

    old_seconds = _best_of(build_reference, 1)
    sequential_seconds = _best_of(build_sequential, repeats)
    stubs_seconds = _best_of(build_stubs, repeats)
    label = f"{num_instances} x RRG n={num_nodes} r={degree}"
    return [
        {
            "kernel": "ensemble_build_100_sequential",
            "graph": label + " (reference loop vs array-native sequential)",
            "num_nodes": num_nodes,
            "old_seconds": old_seconds,
            "new_seconds": sequential_seconds,
            "speedup": old_seconds / sequential_seconds,
        },
        {
            "kernel": "ensemble_build_100_stubs",
            "graph": label + " (array-native sequential vs vectorized stubs)",
            "num_nodes": num_nodes,
            "old_seconds": sequential_seconds,
            "new_seconds": stubs_seconds,
            "speedup": sequential_seconds / stubs_seconds,
        },
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the fig05-scale sizes; prints only unless --output is given",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    cases = []
    if args.quick:
        cases.append(_sequential_case(800, 36, repeats=3, repeats_old=1))
        cases.append(_stub_case(800, 36, repeats=3, repeats_old=2))
        cases.append(_budget_case(80, 8, 112, repeats=3, repeats_old=2))
        cases.append(_expand_case(200, 11, 8, repeats=3, repeats_old=2))
        cases.extend(_ensemble_cases(30, 120, 11, 14, repeats=2))
    else:
        cases.append(_sequential_case(3200, 36, repeats=2, repeats_old=1))
        cases.append(_stub_case(3200, 36, repeats=3, repeats_old=2))
        cases.append(_budget_case(245, 14, 686, repeats=3, repeats_old=2))
        cases.append(_expand_case(800, 36, 8, repeats=2, repeats_old=1))
        cases.extend(_ensemble_cases(100, 260, 11, 14, repeats=2))


    # Every snapshot row carries the recorder's RSS high-water mark at the
    # time the row set completed (ru_maxrss is process-monotonic, so this is
    # an upper bound per row, not a per-case footprint).
    for case in cases:
        case["peak_rss_kb"] = peak_rss_kb()
    for case in cases:
        print(
            f"{case['kernel']:<32} {case['graph']:<56} "
            f"old {case['old_seconds'] * 1e3:10.3f} ms  "
            f"new {case['new_seconds'] * 1e3:10.3f} ms  "
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
