"""Record the hyperscale trajectory: wall-clock and peak RSS vs switch count.

Runs the ``fig05-scale`` / ``fig02a-scale`` workload -- stub-matching RRG
construction, sampled path-length stats through the chunked BFS kernel,
and sampled bisection cuts -- at N in {1k, 10k, 50k, 100k} switches and
writes ``benchmarks/BENCH_scale.json``.  Run it after touching the CSR
kernels, the sampling estimators, or the stub-matching constructor:

    PYTHONPATH=src python benchmarks/record_scale.py            # full (~2 min)
    PYTHONPATH=src python benchmarks/record_scale.py --quick    # 1k + 10k only

Each size runs in a **child process** (this script re-execs itself with
``--child``): ``ru_maxrss`` is a process-wide monotonic high-water mark,
so measuring four sizes in one process would report the 100k footprint
for every row.  Subprocess isolation gives each N its own honest peak.

A ``--quick`` run prints the rows but refuses to overwrite the committed
snapshot (pass ``--output`` explicitly), so the 100k acceptance row never
vanishes silently.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

OUTPUT = Path(__file__).resolve().parent / "BENCH_scale.json"

PORTS = 48
NETWORK_DEGREE = 36
NUM_SOURCES = 256
BISECTION_TRIALS = 9
SEED = 5

FULL_SIZES = [1000, 10000, 50000, 100000]
QUICK_SIZES = [1000, 10000]


def _child(num_switches: int) -> int:
    """Measure one size in this (fresh) process and print a JSON row."""
    from repro.graphs.sampling import (
        sampled_bisection_stats,
        sampled_path_length_stats,
    )
    from repro.telemetry.manifest import peak_rss_kb
    from repro.topologies.ensemble import single_rrg_core

    t0 = time.perf_counter()
    core = single_rrg_core(num_switches, PORTS, NETWORK_DEGREE, seed=SEED)
    csr = core.csr()
    build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    paths = sampled_path_length_stats(csr, num_sources=NUM_SOURCES, seed=SEED)
    path_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    cuts = sampled_bisection_stats(csr, trials=BISECTION_TRIALS, seed=SEED)
    bisection_seconds = time.perf_counter() - t0

    row = {
        "kernel": f"scale_{num_switches}_switches",
        "graph": (
            f"rrg N={num_switches} k={PORTS} r={NETWORK_DEGREE} "
            f"({NUM_SOURCES} sources, {BISECTION_TRIALS} cuts)"
        ),
        "num_nodes": num_switches,
        "build_seconds": build_seconds,
        "path_seconds": path_seconds,
        "bisection_seconds": bisection_seconds,
        "seconds": build_seconds + path_seconds + bisection_seconds,
        "peak_rss_kb": peak_rss_kb(),
        "mean_path_length": paths.mean,
        "path_ci_halfwidth": (paths.ci_high - paths.ci_low) / 2.0,
        "diameter_lower_bound": paths.diameter_lower_bound,
        "mean_cut": cuts.mean_cut,
        "expected_cut": cuts.expected_cut,
    }
    json.dump(row, sys.stdout)
    print()
    return 0


def _measure(num_switches: int) -> dict:
    """Run one size in an isolated child process and parse its row."""
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(num_switches)],
        capture_output=True,
        text=True,
        check=False,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"child for N={num_switches} failed:\n{result.stderr.strip()}"
        )
    return json.loads(result.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run only 1k and 10k; prints only unless --output is given",
    )
    parser.add_argument(
        "--child",
        type=int,
        default=None,
        metavar="N",
        help=argparse.SUPPRESS,  # internal: measure one size in-process
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.child is not None:
        return _child(args.child)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    cases = []
    for num_switches in sizes:
        case = _measure(num_switches)
        cases.append(case)
        print(
            f"{case['kernel']:<24} build {case['build_seconds']:7.2f} s  "
            f"paths {case['path_seconds']:7.2f} s  "
            f"cuts {case['bisection_seconds']:6.2f} s  "
            f"rss {case['peak_rss_kb'] / 1024:7.0f} MB  "
            f"apl {case['mean_path_length']:.3f}"
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
