"""End-to-end benchmark: the paper's figures as five workloads, layer by layer.

Each workload is a list of registered sweeps at a fixed scale, run through
``repro.engine.registry.run_sweep`` -- the default serial, uncached runner.
Every repetition runs in a fresh child process, one child at a time, so peak
RSS is the repetition's own and no process-local cache is warm.  BLAS and
OpenMP threads are capped at 2.

A measurement at ``--seed S`` has ``K`` inputs (``K`` is per workload):
input ``i`` runs each sweep at the seeds ``(S*K + i) * n + 0..n-1``, where
``n`` is the sweep's seeds per input.  Repetitions cycle through the inputs,
so medians are taken over different random topologies and traffic, not over
one draw, and no two ``--seed`` values share an input.

One measurement of one workload::

    python3 benchmarks/e2e/run.py --workload lp-optimal --seed 0 --seconds 20 --trace 0

starts one uncounted warm-up child and then, until ``--seconds`` have passed,

* ``--trace 0``: set-up probes and untraced repetitions.  Prints the
  end-to-end metrics: ``wall_s`` and ``setup_s`` are medians over the
  repetitions (and probes, for ``setup_s``); ``peak_rss_mb`` is the mean of
  the repetitions' peaks.
* ``--trace 1``: one untraced repetition, then traced ones.  Prints the
  per-layer metrics of :mod:`layers`, medians over the traced repetitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A (sweep, seed) run
fails when it raises, when its rows differ between repetitions, or when they
differ from ``expected.json``.

Without ``--trace`` the script makes a default run: every selected workload
(all five unless ``--workload`` is given) untraced and then traced, printed
as a table and, with ``--out``, written as a snapshot for ``compare.py``.
``--record-expected`` rewrites ``expected.json`` for seeds 0..9 instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

Run = Tuple[str, str, int]  # (sweep id, scale, seed)

#: Workload -> its number of inputs ``K`` and its runs as (sweep id, scale,
#: seeds per input).  Why each workload is here is recorded beside its name
#: in ``BENCHMARK.json``.  The sweep ids are a compatibility surface:
#: renaming or merging a sweep must keep these resolvable.
WORKLOADS: Dict[str, dict] = {
    "lp-optimal": {
        "inputs": 2,
        "runs": [("fig04", "small", 1), ("fig03", "small", 1), ("fig14", "small", 1), ("fig06", "small", 1)],
    },
    "server-search": {
        "inputs": 2,
        "runs": [("fig02c", "small", 6)],
    },
    "packet-level": {
        "inputs": 3,
        "runs": [("table1", "small", 2), ("fig13-dynamics", "paper", 1), ("fig13", "paper", 1), ("fig09", "paper", 1)],
    },
    "hyperscale": {
        "inputs": 4,
        "runs": [("fig05-scale", "paper", 2), ("fig02a-scale", "paper", 2)],
    },
    "lifecycle": {
        "inputs": 3,
        "runs": [("fig08-lifecycle", "paper", 1)],
    },
}

#: End-to-end metrics of an untraced measurement, with their units.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_PROBES = 5
MIN_REPS = 2
THREADS = "2"
FLOAT_RTOL = 1e-9
EXPECTED_SEEDS = range(10)


def workload_inputs(workload: str, seed: int) -> List[List[Run]]:
    """The ``K`` inputs of ``workload`` at ``seed``, each a list of runs."""
    inputs = WORKLOADS[workload]["inputs"]
    return [
        [
            (sweep, scale, (seed * inputs + index) * count + offset)
            for sweep, scale, count in WORKLOADS[workload]["runs"]
            for offset in range(count)
        ]
        for index in range(inputs)
    ]


def run_key(run: Run) -> str:
    return "/".join(map(str, run))


def parse_run_key(key: str) -> Run:
    sweep, scale, seed = key.split("/")
    return sweep, scale, int(seed)


# --------------------------------------------------------------------------- #
# Child process: one set-up probe or one repetition
# --------------------------------------------------------------------------- #
def _plain(rows) -> list:
    """JSON-ready rows: tuples become lists, numpy scalars Python numbers."""
    return [[value.item() if hasattr(value, "item") else value for value in row] for row in rows]


def _cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def child_main(mode: str, runs: List[Run], spawned_at: float) -> int:
    """Set up (imports and sweep specs), then run ``runs`` unless probing set-up."""
    import repro  # noqa: F401  (the package import is part of set-up)
    from repro import telemetry
    from repro.engine import registry
    from repro.experiments.common import EXPERIMENTS

    for sweep in dict.fromkeys(sweep for sweep, _, _ in runs):
        __import__(EXPERIMENTS[sweep])
    for sweep, scale, seed in runs:
        registry.sweep_specs(sweep, scale, seed)
    out: dict = {"setup_s": time.monotonic() - spawned_at}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    if telemetry.is_enabled():
        raise RuntimeError("tracing is on in an untraced child; REPRO_TRACE leaked in")
    rows: Dict[str, list] = {}
    errors: Dict[str, str] = {}

    def execute() -> float:
        start = time.perf_counter()
        for run in runs:
            try:
                result = registry.run_sweep(*run)
            except Exception as error:  # a failed run is counted, not fatal
                errors[run_key(run)] = f"{type(error).__name__}: {error}"
                continue
            rows[run_key(run)] = _plain(result.rows)
        return time.perf_counter() - start

    if mode == "traced":
        from repro.graphs.csr import distance_memo_stats

        memo_before = distance_memo_stats()
        cpu_before = _cpu_s()
        with layers.Instrumentation() as instrumentation:
            wall = execute()
        cpu_s = _cpu_s() - cpu_before
        memo_after = distance_memo_stats()
        memo_delta = {key: memo_after[key] - memo_before[key] for key in ("hits", "misses")}
        out["layers"] = instrumentation.metrics(wall, memo_delta)
        out["layers"]["process.cpu_s"] = cpu_s
        out["spans"] = instrumentation.table.spans
    else:
        wall = execute()
    from repro.telemetry.manifest import peak_rss_kb

    out.update(wall_s=wall, peak_rss_mb=peak_rss_kb() / 1024.0, rows=rows, errors=errors)
    print(json.dumps(out))
    return 0


# --------------------------------------------------------------------------- #
# Parent: spawn children, check outputs, aggregate
# --------------------------------------------------------------------------- #
def work_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the benchmark's own ``.work`` directory."""
    root = HERE / ".work"
    root.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=root)


def child_env(scratch: str) -> Dict[str, str]:
    """The child's environment: no ``REPRO_*`` setting leaks in, caches and
    run manifests go to ``scratch``, and BLAS/OpenMP use at most two threads."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    env["REPRO_RUNS_DIR"] = os.path.join(scratch, "runs")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = THREADS
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(mode: str, runs: List[Run], env: Dict[str, str]) -> dict:
    """Run one child to completion and parse its JSON line."""
    spawned_at = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", mode,
         "--spawned-at", repr(spawned_at), *map(run_key, runs)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{mode} child exited {completed.returncode}:\n{completed.stderr.strip()}"
        )
    rep = json.loads(completed.stdout.strip().splitlines()[-1])
    rep["elapsed"] = time.monotonic() - spawned_at
    rep["runs"] = [run_key(run) for run in runs]
    return rep


def values_match(expected, actual) -> bool:
    """Floats equal within a relative 1e-9, everything else exactly."""
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(expected, (int, float)) or not isinstance(actual, (int, float)):
            return False
        return math.isclose(expected, actual, rel_tol=FLOAT_RTOL, abs_tol=0.0)
    if isinstance(expected, list) and isinstance(actual, list):
        return len(expected) == len(actual) and all(
            values_match(e, a) for e, a in zip(expected, actual)
        )
    return type(expected) is type(actual) and expected == actual


def row_diff(expected: list, actual: list) -> str:
    lines = []
    for index in range(max(len(expected), len(actual))):
        want = expected[index] if index < len(expected) else None
        got = actual[index] if index < len(actual) else None
        if not values_match(want, got):
            lines.append(f"    row {index}: expected {want!r}\n    row {index}:      got {got!r}")
    return "\n".join(lines)


def load_expected() -> Dict[str, list]:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text())["rows"]


def check_outputs(reps: List[dict], expected: Dict[str, list]) -> Tuple[int, int, bool, List[str]]:
    """``(attempted, failed, outputs_checked, messages)`` over all repetitions.

    A run fails when it raised, or when its rows differ from the committed
    expected rows -- or, for a run with none committed, from the first
    repetition that ran it.  ``outputs_checked`` is false when some run has
    no committed rows, so it was only checked for determinism.
    """
    attempted = failed = 0
    messages: List[str] = []
    first: Dict[str, Tuple[int, list]] = {}
    for number, rep in enumerate(reps):
        for key in rep["runs"]:
            attempted += 1
            if key in rep["errors"]:
                failed += 1
                messages.append(f"{key} (repetition {number}) raised {rep['errors'][key]}")
                continue
            rows = rep["rows"][key]
            if key in expected:
                source, reference = "expected.json", expected[key]
            else:
                seen, reference = first.setdefault(key, (number, rows))
                source = f"repetition {seen}"
            if not values_match(reference, rows):
                failed += 1
                messages.append(
                    f"{key} (repetition {number}) differs from {source}:\n"
                    + row_diff(reference, rows)
                )
    checked = all(key in expected for rep in reps for key in rep["runs"])
    return attempted, failed, checked, messages


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(plain: List[dict], setup_samples: List[float]) -> Dict[str, dict]:
    """End-to-end metrics of untraced repetitions and set-up probes.

    Times are medians.  Peak RSS is a mean: each input's peak repeats to
    within a few pages, but across inputs it falls into two modes a few MB
    apart, and a median flips between them.
    """
    values = {
        "wall_s": statistics.median(rep["wall_s"] for rep in plain),
        "setup_s": statistics.median(setup_samples + [rep["setup_s"] for rep in plain]),
        "peak_rss_mb": statistics.mean(rep["peak_rss_mb"] for rep in plain),
    }
    return {name: metric(values[name], unit) for name, unit in E2E_UNITS.items()}


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, dict]:
    """Per-layer metrics: medians over traced repetitions, plus the tracing
    overhead of the first traced repetition over the untraced one (both run
    the first input)."""
    values = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead"] = traced[0]["wall_s"] / plain[0]["wall_s"] - 1.0
    return {name: metric(values[name], unit) for name, unit in layers.UNITS.items()}


def measure(
    workload: str, seed: int, seconds: float, traced: bool, expected: Dict[str, list]
) -> dict:
    """One measurement of ``workload``, lasting about ``seconds``."""
    deadline = time.monotonic() + seconds
    inputs = workload_inputs(workload, seed)
    setup_samples: List[float] = []
    plain: List[dict] = []
    traced_reps: List[dict] = []
    with work_dir() as scratch:
        env = child_env(scratch)
        spawn("setup", inputs[0], env)  # warm-up: bytecode and file caches

        def repeat(mode: str, into: List[dict], minimum: int) -> None:
            """Repetitions, cycling through the inputs, until the deadline
            falls in the middle of the next one."""
            while len(into) < minimum or (
                time.monotonic() + statistics.median(r["elapsed"] for r in into) / 2 <= deadline
            ):
                into.append(spawn(mode, inputs[len(into) % len(inputs)], env))

        if traced:
            plain.append(spawn("plain", inputs[0], env))
            repeat("traced", traced_reps, 1)
        else:
            for _ in range(SETUP_PROBES):
                setup_samples.append(spawn("setup", inputs[0], env)["setup_s"])
            repeat("plain", plain, MIN_REPS)
    attempted, failed, checked, messages = check_outputs(plain + traced_reps, expected)
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "outputs_checked": checked,
        "messages": messages,
        "samples": {
            "wall_s": [rep["wall_s"] for rep in plain],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain],
        },
    }
    if traced:
        record["samples"]["traced_wall_s"] = [rep["wall_s"] for rep in traced_reps]
        record["metrics"] = per_layer(plain, traced_reps)
        record["spans"] = traced_reps[0]["spans"]
    else:
        record["samples"]["setup_s"] = setup_samples + [rep["setup_s"] for rep in plain]
        record["metrics"] = end_to_end(plain, setup_samples)
    return record


def result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def report(record: dict) -> None:
    """Human-readable summary of one measurement (printed before the JSON line)."""
    mode = "traced" if record["traced"] else "untraced"
    print(
        f"{record['workload']} seed {record['seed']} ({mode}): "
        f"{record['attempted'] - record['failed']}/{record['attempted']} runs ok, "
        f"outputs_checked: {str(record['outputs_checked']).lower()}"
    )
    for message in record["messages"]:
        print(f"  FAILED {message}")
    for name, entry in record["metrics"].items():
        print(f"  {name:<30} {entry['value']:14.4f} {entry['unit']}")


def machine() -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core

        highs = ".".join(
            str(getattr(_core, f"HIGHS_VERSION_{part}")) for part in ("MAJOR", "MINOR", "PATCH")
        )
    except (ImportError, AttributeError):
        highs = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
        "machine": platform.machine(),
    }


def record_expected() -> int:
    """Rewrite ``expected.json`` with the rows of every input of seeds 0..9,
    each input in its own child as the benchmark runs it."""
    rows: Dict[str, list] = {}
    with work_dir() as scratch:
        env = child_env(scratch)
        for workload in WORKLOADS:
            for seed in EXPECTED_SEEDS:
                for runs in workload_inputs(workload, seed):
                    rep = spawn("plain", runs, env)
                    if rep["errors"]:
                        raise RuntimeError(f"{workload} seed {seed}: {rep['errors']}")
                    rows.update(rep["rows"])
            print(f"{workload}: {len(rows)} runs so far", flush=True)
    lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(rows[key])}" for key in sorted(rows))
    EXPECTED.write_text(
        f'{{\n "seeds": {json.dumps(list(EXPECTED_SEEDS))},\n "rows": {{\n{lines}\n }}\n}}\n'
    )
    print(f"wrote {EXPECTED} ({len(rows)} runs)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, default=None, help="write a default run's snapshot here")
    parser.add_argument("--record-expected", action="store_true")
    parser.add_argument("--child", choices=("setup", "plain", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("runs", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        return child_main(args.child, [parse_run_key(key) for key in args.runs], args.spawned_at)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_expected:
        return record_expected()
    expected = load_expected()

    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        record = measure(args.workload[0], args.seed, args.seconds, bool(args.trace), expected)
        report(record)
        print(result_line(record))
        return 0

    records = []
    for workload in args.workload or list(WORKLOADS):
        for traced in (False, True):
            record = measure(workload, args.seed, args.seconds, traced, expected)
            report(record)
            records.append(record)
    if args.out is not None:
        snapshot = {
            "schema": 1,
            "generated_unix": int(time.time()),
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": machine(),
            "workloads": {},
        }
        for record in records:
            entry = snapshot["workloads"].setdefault(record["workload"], {})
            entry["traced" if record["traced"] else "untraced"] = record
        args.out.write_text(json.dumps(snapshot, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 1 if any(record["failed"] for record in records) else 0


if __name__ == "__main__":
    sys.exit(main())
