"""Record the flow-engine perf trajectory: old implementations vs vectorized.

Times the pre-vectorization flow implementations (the oracles in
``tests/oracles/flow.py``) against the vectorized engine on representative
fig08/fig13-scale inputs and writes ``benchmarks/BENCH_flow.json``.  Run it
after touching anything under ``repro.flow`` or the fluid simulator:

    PYTHONPATH=src python benchmarks/record_flow.py            # all sizes (~minutes)
    PYTHONPATH=src python benchmarks/record_flow.py --quick    # small sizes only

A ``--quick`` run prints the comparison but refuses to overwrite the
committed snapshot (pass ``--output`` explicitly to write one), so the
paper-scale rows backing the recorded trajectory never vanish silently.

Cases:

* ``max_min_allocation`` -- the progressive-filling kernel on a fig13-style
  instance (equipment-matched Jellyfish, permutation traffic, 8 striped
  subflows per pair);
* ``fluid_mptcp_simulation`` -- ``simulate_fluid`` end-to-end with the MPTCP
  tiered allocator, old vs new max-min kernel underneath;
* ``path_lp_assembly`` / ``edge_lp_assembly`` -- constraint-matrix
  construction only (``lil_matrix`` cell writes vs vectorized COO
  triplets); the path row builds its :class:`PathLPStructure` inside each
  rep;
* ``fig02c_binary_search`` -- the servers-at-full-throughput binary search
  end-to-end: the pre-refactor driver (reference LP per matrix, no shared
  state) vs the production harness, cold (empty caches) and warm (shared
  path tables hot).  Both searches are asserted to find the same server
  count.
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
from timing import best_of, timed_best_of
from unittest import mock

from repro.flow.maxmin import max_min_fair_allocation
from repro.flow.mcf import _assemble_edge_lp
from repro.flow.path_lp import PathLPStructure
from repro.flow.throughput import max_servers_at_full_throughput
from repro.graphs.csr import clear_csr_cache
from repro.memo import clear_memos
from repro.routing.paths import build_path_set
from repro.simulation.capacity import link_capacities
from repro.simulation.fluid import (
    MPTCP,
    TCP_EIGHT_FLOWS,
    SimulationConfig,
    _build_flow_specs,
    simulate_fluid,
)
import repro.simulation.fluid as fluid_module
from repro.topologies.fattree import FatTreeTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic
from repro.utils.rng import ensure_rng

from oracles.flow import (
    assemble_edge_lp_reference,
    assemble_path_lp_reference,
    max_concurrent_flow_path_lp_reference,
    max_min_fair_allocation_reference,
)

OUTPUT = Path(__file__).resolve().parent / "BENCH_flow.json"


def _best_of(callable_, repeats: int) -> float:
    """Shared-clock best-of timing (see :func:`timing.best_of`)."""
    return best_of(callable_, repeats)


def _fig13_instance(fattree_k: int, server_factor: float = 1.13, seed: int = 1):
    """Equipment-matched Jellyfish + permutation traffic, fig13's setup."""
    fattree = FatTreeTopology.build(fattree_k)
    jellyfish = JellyfishTopology.from_equipment(
        num_switches=fattree.num_switches,
        ports_per_switch=fattree_k,
        num_servers=int(round(fattree.num_servers * server_factor)),
        rng=seed,
    )
    traffic = random_permutation_traffic(jellyfish, rng=seed + 1)
    return jellyfish, traffic


def _maxmin_case(fattree_k: int, repeats: int, repeats_old=None) -> dict:
    topology, traffic = _fig13_instance(fattree_k)
    path_set = build_path_set(
        topology.graph, list(traffic.switch_pairs()), scheme="ksp", k=8
    )
    config = SimulationConfig(routing="ksp", k=8, congestion_control=TCP_EIGHT_FLOWS)
    specs = _build_flow_specs(traffic, path_set, config, ensure_rng(3))
    capacities = link_capacities(topology)
    new_seconds = _best_of(
        lambda: max_min_fair_allocation(specs, capacities), repeats
    )
    old_seconds = _best_of(
        lambda: max_min_fair_allocation_reference(specs, capacities),
        repeats if repeats_old is None else repeats_old,
    )
    return {
        "kernel": "max_min_allocation",
        "graph": f"jellyfish equip k={fattree_k} ({len(specs) * 8} subflows)",
        "num_nodes": topology.num_switches,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _fluid_case(fattree_k: int, repeats: int, repeats_old=None) -> dict:
    topology, traffic = _fig13_instance(fattree_k)
    config = SimulationConfig(routing="ksp", k=8, congestion_control=MPTCP)

    def run_new():
        return simulate_fluid(topology, traffic, config, rng=5)

    def run_old():
        with mock.patch.object(
            fluid_module, "max_min_fair_allocation", max_min_fair_allocation_reference
        ):
            return simulate_fluid(topology, traffic, config, rng=5)

    run_new()  # warm the shared path table so both variants route from cache
    new_seconds = _best_of(run_new, repeats)
    old_seconds = _best_of(
        run_old, repeats if repeats_old is None else repeats_old
    )
    return {
        "kernel": "fluid_mptcp_simulation",
        "graph": f"jellyfish equip k={fattree_k}",
        "num_nodes": topology.num_switches,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _path_assembly_case(fattree_k: int, repeats: int) -> dict:
    topology, traffic = _fig13_instance(fattree_k)
    demands = traffic.switch_pairs()
    path_set = build_path_set(topology.graph, list(demands), scheme="ksp", k=8)
    old_seconds = _best_of(
        lambda: assemble_path_lp_reference(topology, demands, path_set), repeats
    )
    new_seconds = _best_of(
        lambda: PathLPStructure(topology).assemble(demands, path_set), repeats
    )
    return {
        "kernel": "path_lp_assembly",
        "graph": f"jellyfish equip k={fattree_k} ({len(demands)} pairs)",
        "num_nodes": topology.num_switches,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _edge_assembly_case(num_switches: int, ports: int, degree: int, repeats: int) -> dict:
    topology = JellyfishTopology.build(num_switches, ports, degree, rng=7)
    traffic = random_permutation_traffic(topology, rng=8)
    demands = traffic.switch_pairs()
    old_seconds = _best_of(
        lambda: assemble_edge_lp_reference(topology, demands), repeats
    )
    new_seconds = _best_of(lambda: _assemble_edge_lp(topology, demands), repeats)
    return {
        "kernel": "edge_lp_assembly",
        "graph": f"jellyfish n={num_switches} r={degree}",
        "num_nodes": num_switches,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _clear_flow_state() -> None:
    clear_csr_cache()
    clear_memos()


def _search_production(ports: int, seed: int) -> int:
    rng = ensure_rng(seed)
    fattree = FatTreeTopology.build(ports)

    def factory(num_servers: int):
        return JellyfishTopology.from_equipment(
            num_switches=fattree.num_switches,
            ports_per_switch=ports,
            num_servers=num_servers,
            rng=rng,
        )

    return max_servers_at_full_throughput(
        factory,
        lower=max(2, fattree.num_servers // 2),
        upper=fattree.num_switches * max(1, ports - 3),
        num_matrices=2,
        k=8,
        rng=rng,
    )


def _search_reference(ports: int, seed: int) -> int:
    """The pre-refactor fig02c search: reference LP, no screens, no caches."""
    rng = ensure_rng(seed)
    fattree = FatTreeTopology.build(ports)

    def factory(num_servers: int):
        return JellyfishTopology.from_equipment(
            num_switches=fattree.num_switches,
            ports_per_switch=ports,
            num_servers=num_servers,
            rng=rng,
        )

    def supports(topology, num_matrices: int, k: int) -> bool:
        if not topology.is_connected():
            return False
        for _ in range(num_matrices):
            traffic = random_permutation_traffic(topology, rng=rng)
            if len(traffic) == 0:
                continue
            theta = max_concurrent_flow_path_lp_reference(topology, traffic, k=k)
            if min(theta, 1.0) < 1.0 - 1e-9:
                return False
        return True

    def feasible(num_servers: int) -> bool:
        return supports(factory(num_servers), num_matrices=2, k=8)

    lower = max(2, fattree.num_servers // 2)
    upper = fattree.num_switches * max(1, ports - 3)
    if not feasible(lower):
        raise RuntimeError(f"lower bound of {lower} servers is infeasible")
    low, high = lower, upper
    if feasible(upper):
        return upper
    while high - low > 1:
        middle = (low + high) // 2
        if feasible(middle):
            low = middle
        else:
            high = middle
    return low


def _search_case(ports: int, repeats: int) -> list:
    label = f"fattree-equipment ports={ports}"

    def timed(callable_):
        best, result = timed_best_of(callable_, repeats, setup=_clear_flow_state)
        return best, result

    old_seconds, old_result = timed(lambda: _search_reference(ports, 0))
    cold_seconds, cold_result = timed(lambda: _search_production(ports, 0))
    # Warm: leave the shared path tables from a priming run.
    _clear_flow_state()
    _search_production(ports, 0)
    warm_seconds = _best_of(lambda: _search_production(ports, 0), repeats)
    warm_result = _search_production(ports, 0)
    if not old_result == cold_result == warm_result:
        raise RuntimeError(
            f"search results diverged: old={old_result} cold={cold_result} "
            f"warm={warm_result}"
        )
    return [
        {
            "kernel": "fig02c_binary_search_cold",
            "graph": label,
            "num_nodes": old_result,
            "old_seconds": old_seconds,
            "new_seconds": cold_seconds,
            "speedup": old_seconds / cold_seconds,
        },
        {
            "kernel": "fig02c_binary_search_warm",
            "graph": label,
            "num_nodes": old_result,
            "old_seconds": old_seconds,
            "new_seconds": warm_seconds,
            "speedup": old_seconds / warm_seconds,
        },
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the larger fig13/fig02c sizes; prints only unless --output is given",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    cases = []
    cases.append(_maxmin_case(10, repeats=3))
    cases.append(_path_assembly_case(10, repeats=5))
    cases.append(_edge_assembly_case(20, 8, 5, repeats=5))
    cases.append(_fluid_case(10, repeats=3, repeats_old=2))
    cases.extend(_search_case(6, repeats=2))
    if not args.quick:
        cases.append(_maxmin_case(12, repeats=3, repeats_old=2))
        cases.append(_path_assembly_case(12, repeats=5))
        cases.extend(_search_case(8, repeats=2))


    # Every snapshot row carries the recorder's RSS high-water mark at the
    # time the row set completed (ru_maxrss is process-monotonic, so this is
    # an upper bound per row, not a per-case footprint).
    for case in cases:
        case["peak_rss_kb"] = peak_rss_kb()
    for case in cases:
        print(
            f"{case['kernel']:<28} {case['graph']:<36} "
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
