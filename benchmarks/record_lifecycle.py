"""Record the lifecycle-engine perf trajectory: incremental vs cold rebuild.

Drives the same seeded 1000-event lifecycle through both metric backends
(:class:`repro.lifecycle.metrics.IncrementalMetrics` and the cold-rebuild
oracle in ``tests/oracles/lifecycle.py``), asserts their metric
trajectories are identical float-for-float, and writes
``benchmarks/BENCH_lifecycle.json``.  Run it after touching anything under
``repro.lifecycle``:

    PYTHONPATH=src python benchmarks/record_lifecycle.py            # full (~30 s)
    PYTHONPATH=src python benchmarks/record_lifecycle.py --quick    # small scenario

A ``--quick`` run prints the comparison but refuses to overwrite the
committed snapshot (pass ``--output`` explicitly to write one), so the
1000-event acceptance row never vanishes silently.

Cases:

* ``lifecycle_1000_events`` -- the acceptance row: a 1000-event
  failure/repair lifecycle over a 128-switch Jellyfish with periodic
  traffic epochs (ECMP routing, fixed tracked workload); the incremental
  backend must come in >= 5x faster than the cold rebuild;
* ``lifecycle_200_events`` -- a smaller scenario (64 switches) used by
  ``--quick`` and mirrored by the pytest-benchmark rows.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # oracles

from repro.lifecycle import LifecycleConfig, run_lifecycle
from repro.memo import clear_memos
from repro.telemetry.manifest import peak_rss_kb
from repro.topologies.jellyfish import JellyfishTopology
from timing import best_of

from oracles.lifecycle import ColdMetrics

OUTPUT = Path(__file__).resolve().parent / "BENCH_lifecycle.json"

#: The acceptance scenario: ~1000 events (Poisson link/switch churn at a
#: few failures per simulated day), an ECMP traffic epoch every 130 h, one
#: tracked workload (``traffic="fixed"``, which is what makes revisited
#: states memoizable).  No expansion: both backends must see identical
#: plants for the parity assert to be float-exact.
FULL_CONFIG = LifecycleConfig(
    duration_hours=2600.0,
    link_failure_rate=0.45,
    switch_failure_rate=0.045,
    link_mttr_hours=1.0,
    switch_mttr_hours=2.0,
    epoch_interval_hours=130.0,
    max_events=1000,
    routing="ecmp",
    k=4,
    congestion_control="tcp1",
    traffic="fixed",
)

QUICK_CONFIG = LifecycleConfig(
    duration_hours=650.0,
    link_failure_rate=0.45,
    switch_failure_rate=0.045,
    link_mttr_hours=1.0,
    switch_mttr_hours=2.0,
    epoch_interval_hours=130.0,
    max_events=200,
    routing="ecmp",
    k=4,
    congestion_control="tcp1",
    traffic="fixed",
)


def _clear_shared_state() -> None:
    clear_memos()


def _assert_parity(reference, incremental) -> None:
    if reference.event_log != incremental.event_log:
        raise RuntimeError("backends diverged: event logs differ")
    if reference.epochs != incremental.epochs:
        raise RuntimeError("backends diverged: epoch records differ")


def _case(
    kernel: str,
    num_switches: int,
    ports: int,
    degree: int,
    config: LifecycleConfig,
    repeats: int,
    repeats_old: int,
    seed: int = 5,
) -> dict:
    plant = JellyfishTopology.build(num_switches, ports, degree, rng=seed)

    def run_reference():
        return run_lifecycle(plant, config, seed=seed, metrics_class=ColdMetrics)

    def run_incremental():
        return run_lifecycle(plant, config, seed=seed)

    _clear_shared_state()
    reference = run_reference()
    incremental = run_incremental()
    _assert_parity(reference, incremental)

    old_seconds = best_of(run_reference, repeats_old, setup=_clear_shared_state)
    new_seconds = best_of(run_incremental, repeats, setup=_clear_shared_state)
    return {
        "kernel": kernel,
        "graph": (
            f"jellyfish N={num_switches} "
            f"({reference.events_applied} events, {len(reference.epochs)} epochs)"
        ),
        "num_nodes": num_switches,
        "old_seconds": old_seconds,
        "new_seconds": new_seconds,
        "speedup": old_seconds / new_seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run only the 200-event scenario; prints only unless --output is given",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    cases = [
        _case(
            "lifecycle_200_events", 64, 12, 9, QUICK_CONFIG, repeats=3, repeats_old=2
        )
    ]
    if not args.quick:
        cases.append(
            _case(
                "lifecycle_1000_events",
                128,
                14,
                10,
                FULL_CONFIG,
                repeats=3,
                repeats_old=2,
            )
        )
        acceptance = cases[-1]
        if acceptance["speedup"] < 5.0:
            raise RuntimeError(
                f"acceptance row below 5x: {acceptance['speedup']:.2f}x"
            )


    # Every snapshot row carries the recorder's RSS high-water mark at the
    # time the row set completed (ru_maxrss is process-monotonic, so this is
    # an upper bound per row, not a per-case footprint).
    for case in cases:
        case["peak_rss_kb"] = peak_rss_kb()
    for case in cases:
        print(
            f"{case['kernel']:<24} {case['graph']:<44} "
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
