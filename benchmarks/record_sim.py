"""Record the dynamics-engine perf trajectory: scalar reference vs vectorized.

Times the retained scalar AIMD round loop
(``simulate_aimd_reference`` in ``tests/oracles/simulation.py``) against the
array-native round engine on representative sizes and writes
``benchmarks/BENCH_sim.json``.  Run it after touching anything under
``repro.simulation``:

    PYTHONPATH=src python benchmarks/record_sim.py            # all sizes (~minutes)
    PYTHONPATH=src python benchmarks/record_sim.py --quick    # small sizes only

A ``--quick`` run prints the comparison but refuses to overwrite the
committed snapshot (pass ``--output`` explicitly to write one), so the
fig11-scale rows backing the recorded trajectory never vanish silently.

Cases:

* ``aimd_round_loop`` -- the round engine alone (path set prebuilt and
  passed to both engines), small (fig13-style k=8 equipment) and
  fig11-scale (k=10/k=12 equipment, MPTCP x 8 subflows x 200 rounds); this
  is the >=10x acceptance row;
* ``aimd_end_to_end_cold`` / ``aimd_end_to_end_warm`` -- ``simulate_aimd``
  including routing, with the shared path tables cleared (cold) or hot
  from a previous run over the same topology (warm, the dynamics sweeps'
  repeated-trial regime).

Both engines' results are asserted identical before a row is recorded.
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

from repro.memo import clear_memos
from repro.routing.paths import build_path_set
from repro.simulation.aimd import AimdConfig, simulate_aimd
from repro.topologies.fattree import FatTreeTopology
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic

from oracles.simulation import simulate_aimd_reference

OUTPUT = Path(__file__).resolve().parent / "BENCH_sim.json"

CONFIG = AimdConfig(
    routing="ksp", k=8, congestion_control="mptcp", rounds=200, warmup_rounds=50
)


def _best_of(callable_, repeats: int) -> float:
    """Shared-clock best-of timing (see :func:`timing.best_of`)."""
    return best_of(callable_, repeats)


def _fig11_instance(fattree_k: int, server_factor: float = 1.25, seed: int = 1):
    """Equipment-matched Jellyfish + permutation traffic, fig11's setup."""
    fattree = FatTreeTopology.build(fattree_k)
    jellyfish = JellyfishTopology.from_equipment(
        num_switches=fattree.num_switches,
        ports_per_switch=fattree_k,
        num_servers=int(round(fattree.num_servers * server_factor)),
        rng=seed,
    )
    traffic = random_permutation_traffic(jellyfish, rng=seed + 1)
    return jellyfish, traffic


def _assert_same(new, old) -> None:
    if [float(value) for value in new.flow_throughputs] != [
        float(value) for value in old.flow_throughputs
    ]:
        raise RuntimeError("engines diverged: throughputs differ")
    if new.convergence_round != old.convergence_round:
        raise RuntimeError("engines diverged: convergence rounds differ")


def _round_loop_case(fattree_k: int, repeats: int, repeats_old=None) -> dict:
    topology, traffic = _fig11_instance(fattree_k)
    path_set = build_path_set(
        topology.csr(), list(traffic.switch_pairs()), scheme="ksp", k=8
    )
    new_result = simulate_aimd(topology, traffic, CONFIG, rng=5, path_set=path_set)
    old_result = simulate_aimd_reference(
        topology, traffic, CONFIG, rng=5, path_set=path_set
    )
    _assert_same(new_result, old_result)
    new_seconds = _best_of(
        lambda: simulate_aimd(topology, traffic, CONFIG, rng=5, path_set=path_set),
        repeats,
    )
    old_seconds = _best_of(
        lambda: simulate_aimd_reference(
            topology, traffic, CONFIG, rng=5, path_set=path_set
        ),
        repeats if repeats_old is None else repeats_old,
    )
    # One connection per cross-rack demand (distinct switch pairs undercount
    # when two server pairs collide on the same rack pair).
    subflows = (
        sum(
            1
            for demand in traffic
            if demand.source_switch != demand.destination_switch
        )
        * CONFIG.subflows
    )
    return {
        "kernel": "aimd_round_loop",
        "graph": f"jellyfish equip k={fattree_k} ({subflows} subflows x {CONFIG.rounds} rounds)",
        "num_nodes": topology.num_switches,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def _clear_sim_state() -> None:
    clear_memos()


def _end_to_end_case(fattree_k: int, repeats: int, repeats_old=None) -> list:
    topology, traffic = _fig11_instance(fattree_k)
    label = f"jellyfish equip k={fattree_k}"

    def run_new():
        return simulate_aimd(topology, traffic, CONFIG, rng=5)

    def run_old():
        return simulate_aimd_reference(topology, traffic, CONFIG, rng=5)

    def timed_cold(callable_, reps):
        return timed_best_of(callable_, reps, setup=_clear_sim_state)[0]

    _assert_same(run_new(), run_old())
    old_reps = repeats if repeats_old is None else repeats_old
    old_seconds = timed_cold(run_old, old_reps)
    cold_seconds = timed_cold(run_new, repeats)
    _clear_sim_state()
    run_new()  # prime the shared path table
    warm_seconds = _best_of(run_new, repeats)
    return [
        {
            "kernel": "aimd_end_to_end_cold",
            "graph": label,
            "num_nodes": topology.num_switches,
            "old_seconds": old_seconds,
            "new_seconds": cold_seconds,
            "speedup": old_seconds / cold_seconds,
        },
        {
            "kernel": "aimd_end_to_end_warm",
            "graph": label,
            "num_nodes": topology.num_switches,
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
        help="skip the fig11-scale sizes; prints only unless --output is given",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    cases = []
    cases.append(_round_loop_case(8, repeats=5))
    cases.extend(_end_to_end_case(8, repeats=3))
    if not args.quick:
        cases.append(_round_loop_case(10, repeats=5, repeats_old=2))
        cases.append(_round_loop_case(12, repeats=3, repeats_old=2))
        cases.extend(_end_to_end_case(10, repeats=3, repeats_old=2))


    # Every snapshot row carries the recorder's RSS high-water mark at the
    # time the row set completed (ru_maxrss is process-monotonic, so this is
    # an upper bound per row, not a per-case footprint).
    for case in cases:
        case["peak_rss_kb"] = peak_rss_kb()
    for case in cases:
        print(
            f"{case['kernel']:<24} {case['graph']:<52} "
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
