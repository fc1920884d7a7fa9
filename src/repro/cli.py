"""Command-line entry point: run the paper's experiments and scenario sweeps.

Examples
--------
List the available experiments::

    jellyfish-repro --list

Reproduce Table 1 at the fast (small) scale and print the table::

    jellyfish-repro table1

Run the Fig 2(c) throughput comparison at closer-to-paper scale::

    jellyfish-repro fig02c --scale paper --seed 7

Run figures through the scenario engine -- sharded over 4 worker processes
with a content-addressed result cache, so a second invocation is served from
disk::

    jellyfish-repro sweep run fig01 fig02a --workers 4 --seed 7
    jellyfish-repro sweep list
    jellyfish-repro sweep show fig02a --scale paper

Supervised execution: per-point timeouts, bounded retries, and resumable
runs (an interrupted or partially-failed sweep picks up where it left off,
skipping every journaled point)::

    jellyfish-repro sweep run fig02a --workers 4 --timeout 300
    jellyfish-repro sweep run --resume 1754650000-fig02a-1a2b3c4d

Construct and content-hash topologies directly (array-native; no figure)::

    jellyfish-repro topo build --switches 80 --ports 12 --degree 9 --seed 3
    jellyfish-repro topo ensemble --instances 100 --switches 80 --ports 12 \
        --degree 9 --method stubs --workers 4

Run the round-based AIMD dynamics engine on one topology::

    jellyfish-repro sim aimd --switches 80 --ports 12 --degree 9 \
        --cc mptcp --rounds 300 --seed 3

Trace a sweep and inspect the recorded telemetry (manifests + span events)::

    jellyfish-repro sweep run fig02c --trace -v
    jellyfish-repro stats --flame

Drive one topology through months of seeded failure/repair churn, with a
traffic epoch evaluated every simulated day (resumable; epoch records are
journaled through the run manifest machinery)::

    jellyfish-repro lifecycle run --family jellyfish --switches 40 \
        --ports 8 --servers 64 --duration 240 --epoch-interval 24 --seed 3
    jellyfish-repro lifecycle run --resume <run-id> [same flags]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.experiments.common import format_table, list_experiments


def _add_reproducibility_options(parser: argparse.ArgumentParser) -> None:
    """The global knobs every subcommand shares: problem size and seed."""
    parser.add_argument(
        "--scale",
        choices=["small", "paper", "hyperscale"],
        default="small",
        help="problem sizes: 'small' is fast, 'paper' is closer to the paper's "
        "sizes, 'hyperscale' (the *-scale sweeps only) runs 10k-100k switches "
        "with sampled estimators",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random seed; the same seed reproduces the same output for every subcommand",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="diagnostic verbosity on stderr (-v = progress, -vv = debug)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jellyfish-repro",
        description="Reproduce tables and figures from 'Jellyfish: Networking Data Centers Randomly'",
        epilog="use 'jellyfish-repro sweep --help' for the scenario-engine interface",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (e.g. fig01 fig02c table1); use --list to see all",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiment ids and exit"
    )
    _add_reproducibility_options(parser)
    return parser


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jellyfish-repro sweep",
        description="Run experiments as declarative scenario sweeps (parallel, cached)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    _add_reproducibility_options(common)

    run_parser = subparsers.add_parser(
        "run", parents=[common], help="run sweeps and print their result tables"
    )
    run_parser.add_argument(
        "sweeps",
        nargs="*",
        help="sweep ids (e.g. fig01 table1); optional with --resume",
    )
    run_parser.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=0,
        help="worker processes for sharded execution (0 = serial in-process)",
    )
    run_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock timeout; overrides the one-hour default "
        "(0 disables deadlines). Timeouts force supervised "
        "execution even with --workers 0",
    )
    run_parser.add_argument(
        "--memory-mb",
        type=float,
        default=None,
        metavar="MB",
        help="per-point memory budget: each worker caps its address space "
        "(RLIMIT_AS soft limit) so an overrun raises MemoryError instead "
        "of drawing the kernel OOM killer (0 disables). Budgets force "
        "supervised execution even with --workers 0",
    )
    run_parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="disable the degradation ladder: resource-exhausted points "
        "(oom/signal/timeout) retry identically and quarantine instead of "
        "re-running one fidelity rung down",
    )
    run_parser.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        metavar="N",
        help="execution attempts per point before quarantine (default 3)",
    )
    run_parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="resume a previous run: replay its completion journal (points "
        "already finished are skipped, not re-executed) and run the rest. "
        "Sweep id, scale and seed come from the run's manifest",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/jellyfish-repro)",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    run_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-point progress on stderr (progress is already "
        "quiet by default; combine with -v to re-enable it)",
    )
    run_parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="record span events as JSONL (default path: a trace-*.jsonl "
        "beside the run manifests); workers inherit tracing via $REPRO_TRACE",
    )
    run_parser.add_argument(
        "--runs-dir",
        default=None,
        help="directory for run manifests (default: $REPRO_RUNS_DIR or "
        "<cache root>/runs; no manifest is written when caching is disabled "
        "and no directory is given)",
    )

    subparsers.add_parser("list", help="list registered sweeps and their grid sizes")

    show_parser = subparsers.add_parser(
        "show", parents=[common], help="show a sweep's scenario specs and point hashes"
    )
    show_parser.add_argument("sweeps", nargs="+", help="sweep ids to describe")
    return parser


def _sweep_list() -> int:
    from repro.engine import list_sweeps, sweep_points

    for sweep_id in list_sweeps():
        points = sweep_points(sweep_id, scale="small", seed=0)
        print(f"{sweep_id:8s} {len(points):4d} point(s)")
    return 0


def _sweep_show(args: argparse.Namespace) -> int:
    from repro.engine import get_sweep

    exit_code = 0
    for sweep_id in args.sweeps:
        try:
            sweep = get_sweep(sweep_id)
            specs = sweep.build_specs(args.scale, args.seed)
        except (KeyError, ValueError) as error:
            print(f"error: {sweep_id}: {error}", file=sys.stderr)
            exit_code = 2
            continue
        print(f"{sweep_id}: {sweep.__doc__.strip().splitlines()[0]}")
        for spec in specs:
            print(f"  spec {spec.spec_hash[:12]} name={spec.name or sweep_id}")
            print(f"    target: {spec.target}")
            print(f"    base: {spec.base}")
            print(f"    axes: {spec.axes}")
            print(
                f"    seed: {spec.seed}  repetitions: {spec.repetitions}  "
                f"strategy: {spec.seed_strategy}"
            )
            for point in spec.iter_points():
                print(f"    point {point.describe()}")
    return exit_code


def _resolve_runs_root(args: argparse.Namespace, cache):
    """Where to write run manifests, or ``None`` to skip them entirely.

    Explicit ``--runs-dir`` or ``$REPRO_RUNS_DIR`` always wins; otherwise
    manifests sit beside the result cache (``<cache root>/runs``).  With
    ``--no-cache`` and no explicit directory there is nowhere sensible to
    write, so no manifest is produced.
    """
    import os

    from repro.telemetry.manifest import RUNS_DIR_ENV, default_runs_root

    if getattr(args, "runs_dir", None):
        return Path(args.runs_dir).expanduser()
    if os.environ.get(RUNS_DIR_ENV):
        return default_runs_root()
    if cache is not None:
        return Path(cache.root) / "runs"
    return None


class _SweepInterrupted(Exception):
    """Raised from the SIGINT/SIGTERM handler to unwind a running sweep."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


def _print_failure_report(sweep_id: str, outcomes) -> None:
    """Human-readable quarantine report for a sweep that lost points."""
    failures = [o for o in outcomes if o.status == "failed"]
    print(
        f"sweep {sweep_id}: {len(failures)} of {len(outcomes)} point(s) "
        f"quarantined after retries; result table not assembled"
    )
    for outcome in failures:
        failure = outcome.failure
        line = (
            f"  {outcome.point.scenario_hash[:12]} {outcome.point.target} "
            f"{failure.kind} after {outcome.attempts} attempt(s)"
        )
        if failure.exitcode is not None:
            line += f" (exit {failure.exitcode})"
        print(f"{line}: {failure.message}")


def _sweep_run(args: argparse.Namespace) -> int:
    import os
    import signal

    from repro.engine import (
        ResultCache,
        SweepRunner,
        default_cache_root,
        expand,
        get_sweep,
    )
    from repro.engine.registry import POINT_TIMEOUT_S
    from repro.telemetry import RunRecorder, enable, enable_in_subprocesses, get_logger
    from repro.telemetry.manifest import (
        journal_path,
        load_journal,
        load_manifest,
        manifest_path,
    )
    from repro.telemetry.tracer import get_tracer

    log = get_logger("sweep")

    cache = None
    if not args.no_cache:
        root = args.cache_dir if args.cache_dir is not None else default_cache_root()
        cache = ResultCache(root)
    runs_root = _resolve_runs_root(args, cache)

    # --resume: sweep identity (id / scale / seed) comes from the previous
    # run's manifest; its journal supplies the already-completed values.
    completed = None
    resumed_from = None
    if args.resume:
        if runs_root is None:
            print(
                "error: --resume needs a runs directory (give --runs-dir, set "
                "$REPRO_RUNS_DIR, or enable the cache)",
                file=sys.stderr,
            )
            return 2
        try:
            previous = load_manifest(manifest_path(runs_root, args.resume))
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(
                f"error: cannot load manifest for run {args.resume!r} under "
                f"{runs_root}: {error}",
                file=sys.stderr,
            )
            return 2
        if args.sweeps and args.sweeps != [previous.sweep_id]:
            print(
                f"error: run {args.resume} was sweep {previous.sweep_id!r}, "
                f"not {' '.join(args.sweeps)!r}",
                file=sys.stderr,
            )
            return 2
        sweeps = [previous.sweep_id]
        scale = previous.scale
        seed = previous.seed if previous.seed is not None else args.seed
        completed = load_journal(journal_path(runs_root, args.resume))
        resumed_from = args.resume
        log.info(
            "resuming run %s: %d journaled point(s)", args.resume, len(completed)
        )
    else:
        sweeps = args.sweeps
        scale = args.scale
        seed = args.seed
    if not sweeps:
        print("error: no sweeps given (and no --resume)", file=sys.stderr)
        return 2

    # --trace: enable the tracer with a JSONL sink and export it to worker
    # processes; a bare --trace picks a path beside the run manifests.
    trace_path = None
    if args.trace is not None:
        trace_path = args.trace
        if not trace_path:
            root = runs_root if runs_root is not None else Path(".")
            root.mkdir(parents=True, exist_ok=True)
            trace_path = str(root / f"trace-{int(time.time())}-{os.getpid()}.jsonl")
        enable(jsonl_path=trace_path)
        enable_in_subprocesses(trace_path)
    elif get_tracer() is not None:
        trace_path = get_tracer().jsonl_path  # pre-enabled via $REPRO_TRACE

    # SIGINT/SIGTERM unwind the sweep loop: the supervised pool is torn
    # down by the runner's finally block, the manifest and journal are
    # flushed with whatever completed, and we exit 128+signum.
    def _on_signal(signum, frame):
        raise _SweepInterrupted(signum)

    previous_handlers = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _on_signal)
    except ValueError:  # pragma: no cover - not the main thread
        previous_handlers = {}

    exit_code = 0
    recorder = None
    runner = None
    try:
        for sweep_id in sweeps:
            sweep_log = get_logger(f"sweep.{sweep_id}")

            def progress(done: int, total: int, outcome) -> None:
                if args.quiet:
                    return
                if outcome.status == "failed":
                    source = f"FAILED ({outcome.failure.kind})"
                elif outcome.cached:
                    source = f"cache {outcome.duration_s * 1e3:.1f}ms"
                else:
                    source = f"{outcome.duration_s:.2f}s"
                if getattr(outcome, "degradation_level", 0):
                    source += f" (degraded, rung {outcome.degradation_level})"
                sweep_log.info(
                    "[%d/%d] %s %s",
                    done,
                    total,
                    outcome.point.scenario_hash[:12],
                    source,
                )

            try:
                sweep = get_sweep(sweep_id)
                specs = sweep.build_specs(scale, seed)
            except (KeyError, ValueError) as error:
                # ValueError: a scale the sweep does not define (e.g.
                # 'hyperscale' is only meaningful for the *-scale sweeps).
                print(f"error: {sweep_id}: {error}", file=sys.stderr)
                exit_code = 2
                continue
            timeout_s = args.timeout if args.timeout is not None else POINT_TIMEOUT_S
            if timeout_s <= 0:
                timeout_s = None
            memory_mb = args.memory_mb
            if memory_mb is not None and memory_mb <= 0:
                memory_mb = None
            recorder = RunRecorder(
                sweep_id,
                scale=scale,
                seed=seed,
                workers=args.workers,
                spec_hashes=[spec.spec_hash for spec in specs],
                runs_root=runs_root,
                resumed_from=resumed_from,
            )

            def observe(done: int, total: int, outcome) -> None:
                recorder.observe(done, total, outcome)
                progress(done, total, outcome)

            runner = SweepRunner(
                workers=args.workers,
                cache=cache,
                progress=observe,
                timeout_s=timeout_s,
                memory_mb=memory_mb,
                degrade=not args.no_degrade,
                max_attempts=args.max_attempts,
                completed=completed,
                raise_on_failure=False,
            )
            outcomes = runner.run(expand(specs))
            if runs_root is not None:
                manifest = recorder.finalize(
                    cache=cache,
                    runs_root=runs_root,
                    trace_events=trace_path,
                    faults=runner.fault_stats.as_dict(),
                )
                sweep_log.info("manifest %s", manifest)
            if any(o.status == "failed" for o in outcomes):
                _print_failure_report(sweep_id, outcomes)
                exit_code = 1
            else:
                result = sweep.assemble(
                    [o.value for o in outcomes], scale, seed
                )
                print(format_table(result))
            print()
            recorder = None
            runner = None
    except _SweepInterrupted as interrupt:
        if recorder is not None and runs_root is not None:
            faults = runner.fault_stats.as_dict() if runner is not None else None
            manifest = recorder.finalize(
                cache=cache,
                runs_root=runs_root,
                trace_events=trace_path,
                faults=faults,
                interrupted=True,
            )
            print(
                f"interrupted by signal {interrupt.signum}; partial results "
                f"saved, resume with: sweep run --resume {recorder.record.run_id}",
                file=sys.stderr,
            )
            log.info("manifest %s", manifest)
        else:
            print(
                f"interrupted by signal {interrupt.signum}", file=sys.stderr
            )
        return 128 + interrupt.signum
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)

    if cache is not None:
        log.info("cache: %s at %s", cache.stats, cache.root)
    return exit_code


def _sweep_main(argv: List[str]) -> int:
    from repro.telemetry import configure_logging

    args = build_sweep_parser().parse_args(argv)
    configure_logging(getattr(args, "verbose", 0))
    if args.command == "list":
        return _sweep_list()
    if args.command == "show":
        return _sweep_show(args)
    return _sweep_run(args)


def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jellyfish-repro stats",
        description="Report run telemetry: point latencies, cache hit rates, "
        "slowest phases, and optional span flame views",
    )
    parser.add_argument(
        "--runs-dir",
        default=None,
        help="directory holding run-*.json manifests (default: $REPRO_RUNS_DIR "
        "or <cache root>/runs)",
    )
    parser.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="JSONL span event log (default: the newest trace-*.jsonl "
        "referenced by the manifests or found under the runs dir)",
    )
    parser.add_argument(
        "--flame",
        nargs="?",
        const="",
        default=None,
        metavar="NAME",
        help="render a text flame view of the slowest span tree "
        "(optionally restricted to spans named NAME)",
    )
    parser.add_argument(
        "--limit",
        type=_nonnegative_int,
        default=15,
        help="rows in the phase table (0 = unlimited)",
    )
    return parser


def _stats_main(argv: List[str]) -> int:
    from repro.telemetry.manifest import default_runs_root, load_manifests
    from repro.telemetry.report import load_events, render_stats

    args = build_stats_parser().parse_args(argv)
    runs_root = (
        Path(args.runs_dir).expanduser()
        if args.runs_dir is not None
        else default_runs_root()
    )
    records = load_manifests(runs_root)

    events: list = []
    events_path = args.events
    if events_path is None:
        # Prefer the newest event log the manifests point at; fall back to
        # the newest trace-*.jsonl sitting beside them.
        candidates = [
            Path(record.trace_events)
            for record in records
            if record.trace_events and Path(record.trace_events).is_file()
        ]
        if not candidates and runs_root.is_dir():
            candidates = list(runs_root.glob("trace-*.jsonl"))
        if candidates:
            events_path = str(max(candidates, key=lambda p: p.stat().st_mtime))
    if events_path is not None:
        events = load_events(Path(events_path))

    print(render_stats(records, events, flame=args.flame, limit=args.limit))
    return 0


def build_topo_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jellyfish-repro topo",
        description="Construct, summarize and content-hash topologies (array-native)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--switches", type=int, required=True, help="number of ToR switches (N)"
    )
    common.add_argument(
        "--ports", type=int, required=True, help="ports per switch (k)"
    )
    common.add_argument(
        "--degree", type=int, required=True, help="network ports per switch (r)"
    )
    common.add_argument(
        "--servers-per-switch",
        type=int,
        default=None,
        help="servers per switch (default: k - r)",
    )
    common.add_argument(
        "--method",
        choices=["sequential", "stubs"],
        default="sequential",
        help="RRG construction: the paper's sequential procedure (default) "
        "or vectorized stub matching for large batches",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random seed; the same seed reproduces the same topology",
    )

    subparsers.add_parser(
        "build", parents=[common], help="build one topology and print its summary"
    )

    ensemble_parser = subparsers.add_parser(
        "ensemble",
        parents=[common],
        help="build a seeded batch of topologies and print ensemble statistics",
    )
    ensemble_parser.add_argument(
        "--instances", type=int, default=10, help="number of instances to build"
    )
    ensemble_parser.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=0,
        help="worker processes for sharded generation (0 = serial in-process)",
    )
    return parser


def _topo_build(args: argparse.Namespace) -> int:
    from repro.topologies.jellyfish import JellyfishTopology

    topology = JellyfishTopology.build(
        args.switches,
        args.ports,
        args.degree,
        rng=args.seed,
        servers_per_switch=args.servers_per_switch,
        method=args.method,
    )
    connected = topology.is_connected()
    print(
        f"jellyfish N={args.switches} k={args.ports} r={args.degree} "
        f"method={args.method} seed={args.seed}"
    )
    print(
        f"  switches {topology.num_switches}  links {topology.num_links}  "
        f"servers {topology.num_servers}  total ports {topology.total_ports}"
    )
    if connected and topology.num_switches >= 2:
        print(
            f"  connected True  mean path length "
            f"{topology.switch_average_path_length():.4f}  "
            f"diameter {topology.switch_diameter()}"
        )
    else:
        print(f"  connected {connected}")
    print(f"  content hash {topology.content_hash()}")
    return 0


def _topo_ensemble(args: argparse.Namespace) -> int:
    from repro.engine.runner import SweepRunner
    from repro.engine.spec import expand
    from repro.topologies.ensemble import (
        ensemble_point_specs,
        summarize_instance_metrics,
    )

    specs = ensemble_point_specs(
        args.instances,
        args.switches,
        args.ports,
        args.degree,
        servers_per_switch=args.servers_per_switch,
        method=args.method,
        seed=args.seed,
    )
    runner = SweepRunner(workers=args.workers)
    summary = summarize_instance_metrics(runner.run_values(expand(specs)))
    print(
        f"ensemble of {summary['num_instances']} x jellyfish "
        f"N={args.switches} k={args.ports} r={args.degree} "
        f"method={args.method} seed={args.seed}"
    )
    print(
        f"  connected {summary['connected_instances']}/{summary['num_instances']}  "
        f"distinct hashes {summary['distinct_hashes']}"
    )
    print(
        f"  mean path length {summary['mean_path_length_mean']:.4f} "
        f"+/- {summary['mean_path_length_std']:.4f}"
    )
    print(
        f"  diameter {summary['diameter_mean']:.2f} "
        f"+/- {summary['diameter_std']:.2f}"
    )
    return 0


def _topo_main(argv: List[str]) -> int:
    args = build_topo_parser().parse_args(argv)
    try:
        if args.command == "build":
            return _topo_build(args)
        return _topo_ensemble(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def build_sim_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jellyfish-repro sim",
        description="Run the simulators directly (array-native; no figure)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    aimd_parser = subparsers.add_parser(
        "aimd",
        help="round-based AIMD/MPTCP dynamics on one topology (vectorized engine)",
    )
    aimd_parser.add_argument(
        "--topology",
        choices=["jellyfish", "fattree"],
        default="jellyfish",
        help="topology family (jellyfish RRG or k-port fat-tree)",
    )
    aimd_parser.add_argument(
        "--switches", type=int, default=20, help="jellyfish: number of switches (N)"
    )
    aimd_parser.add_argument(
        "--ports", type=int, default=6, help="ports per switch (k)"
    )
    aimd_parser.add_argument(
        "--degree", type=int, default=4, help="jellyfish: network ports per switch (r)"
    )
    aimd_parser.add_argument(
        "--routing", choices=["ksp", "ecmp"], default="ksp", help="routing scheme"
    )
    aimd_parser.add_argument(
        "--cc",
        choices=["tcp1", "tcp8", "mptcp"],
        default="mptcp",
        help="congestion control model",
    )
    aimd_parser.add_argument(
        "--k", type=int, default=8, help="paths per pair (KSP k / ECMP width)"
    )
    aimd_parser.add_argument(
        "--subflows", type=int, default=8, help="subflows per connection (tcp8/mptcp)"
    )
    aimd_parser.add_argument("--rounds", type=int, default=200, help="simulated rounds")
    aimd_parser.add_argument(
        "--warmup-rounds", type=int, default=50, help="rounds excluded from measurement"
    )
    aimd_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="settling tolerance for the convergence measurement",
    )
    aimd_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random seed; the same seed reproduces the same run",
    )
    return parser


def _sim_aimd(args: argparse.Namespace) -> int:
    import time

    from repro.simulation.aimd import AimdConfig, simulate_aimd
    from repro.topologies.fattree import FatTreeTopology
    from repro.topologies.jellyfish import JellyfishTopology

    if args.topology == "fattree":
        topology = FatTreeTopology.build(args.ports)
        label = f"fattree k={args.ports}"
    else:
        topology = JellyfishTopology.build(
            args.switches, args.ports, args.degree, rng=args.seed
        )
        label = f"jellyfish N={args.switches} k={args.ports} r={args.degree}"
    config = AimdConfig(
        routing=args.routing,
        k=args.k,
        congestion_control=args.cc,
        subflows=args.subflows,
        rounds=args.rounds,
        warmup_rounds=args.warmup_rounds,
        convergence_tolerance=args.tolerance,
    )
    start = time.perf_counter()
    result = simulate_aimd(topology, config=config, rng=args.seed)
    elapsed = time.perf_counter() - start
    converged = (
        f"round {result.convergence_round}"
        if result.convergence_round is not None
        else "not settled"
    )
    print(
        f"aimd {label} routing={args.routing} cc={args.cc} "
        f"rounds={args.rounds} seed={args.seed}"
    )
    print(f"  wall time {elapsed:.3f}s")
    print(
        f"  connections {len(result.flow_throughputs)}  "
        f"average throughput {result.average_throughput:.4f}  "
        f"fairness {result.fairness:.4f}"
    )
    print(f"  convergence (tolerance {args.tolerance:g}): {converged}")
    return 0


def _sim_main(argv: List[str]) -> int:
    args = build_sim_parser().parse_args(argv)
    try:
        return _sim_aimd(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def build_lifecycle_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jellyfish-repro lifecycle",
        description=(
            "Drive one topology through a seeded failure/repair lifecycle: "
            "Poisson link/switch failures, exponential repairs, optional "
            "expansion batches, and periodic traffic epochs"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run a lifecycle and print its per-epoch table"
    )
    plant = run_parser.add_argument_group("plant topology")
    plant.add_argument(
        "--family",
        choices=["jellyfish", "fattree"],
        default="jellyfish",
        help="topology family (default jellyfish)",
    )
    plant.add_argument(
        "--ports", type=int, default=8, help="ports per switch / fat-tree k (default 8)"
    )
    plant.add_argument(
        "--switches", type=int, default=20, help="jellyfish switch count (default 20)"
    )
    plant.add_argument(
        "--servers", type=int, default=16, help="jellyfish server count (default 16)"
    )
    plant.add_argument(
        "--build-seed", type=int, default=0, help="rng seed for the plant build"
    )

    config = run_parser.add_argument_group("lifecycle config (times in simulated hours)")
    config.add_argument("--duration", type=float, default=720.0, help="default 720 (one month)")
    config.add_argument(
        "--link-rate", type=float, default=0.1, help="link failures per hour (default 0.1)"
    )
    config.add_argument(
        "--switch-rate", type=float, default=0.01, help="switch failures per hour (default 0.01)"
    )
    config.add_argument("--link-mttr", type=float, default=12.0, help="default 12")
    config.add_argument("--switch-mttr", type=float, default=24.0, help="default 24")
    config.add_argument(
        "--epoch-interval", type=float, default=24.0, help="traffic epoch cadence (default 24)"
    )
    config.add_argument(
        "--expansion-interval", type=float, default=0.0, help="0 disables expansion (default)"
    )
    config.add_argument("--expansion-batch", type=int, default=0, help="switches per batch")
    config.add_argument("--expansion-ports", type=int, default=0, help="ports on added switches")
    config.add_argument("--expansion-servers", type=int, default=0, help="servers per added switch")
    config.add_argument(
        "--max-events", type=int, default=0, help="truncate the stream (0 = no limit)"
    )
    config.add_argument(
        "--engine", choices=["fluid", "path"], default="fluid", help="epoch evaluation engine"
    )
    config.add_argument("--routing", choices=["ksp", "ecmp"], default="ksp")
    config.add_argument("--k", type=int, default=8, help="path budget / ECMP width")
    config.add_argument("--cc", choices=["tcp1", "tcp8", "mptcp"], default="mptcp")
    config.add_argument(
        "--traffic",
        choices=["per-epoch", "fixed"],
        default="per-epoch",
        help="'per-epoch' draws fresh permutation traffic each epoch; "
        "'fixed' tracks one workload (revisited states memoize)",
    )

    execution = run_parser.add_argument_group("execution")
    execution.add_argument("--seed", type=int, default=0, help="lifecycle event-stream seed")
    execution.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        metavar="N",
        help="evaluation attempts per epoch before it is marked failed (default 3)",
    )
    execution.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="resume a previous run: journaled epochs are replayed, not "
        "re-evaluated. Seed comes from the run's manifest; the plant and "
        "lifecycle flags must reproduce the same plant and config (checked "
        "by hash)",
    )
    execution.add_argument(
        "--runs-dir",
        default=None,
        help="directory for run manifests (default: $REPRO_RUNS_DIR or <cache root>/runs)",
    )
    execution.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def _lifecycle_run(args: argparse.Namespace) -> int:
    import os

    from repro.engine import default_cache_root
    from repro.lifecycle import LifecycleConfig, run_lifecycle
    from repro.lifecycle.engine import _build_plant
    from repro.telemetry import RunRecorder, get_logger
    from repro.telemetry.manifest import (
        RUNS_DIR_ENV,
        default_runs_root,
        journal_path,
        load_journal,
        load_manifest,
        manifest_path,
    )

    log = get_logger("lifecycle")
    try:
        config = LifecycleConfig(
            duration_hours=args.duration,
            link_failure_rate=args.link_rate,
            switch_failure_rate=args.switch_rate,
            link_mttr_hours=args.link_mttr,
            switch_mttr_hours=args.switch_mttr,
            epoch_interval_hours=args.epoch_interval,
            expansion_interval_hours=args.expansion_interval,
            expansion_batch=args.expansion_batch,
            expansion_ports=args.expansion_ports,
            expansion_servers=args.expansion_servers,
            max_events=args.max_events,
            epoch_engine=args.engine,
            routing=args.routing,
            k=args.k,
            congestion_control=args.cc,
            traffic=args.traffic,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.runs_dir:
        runs_root = Path(args.runs_dir).expanduser()
    elif os.environ.get(RUNS_DIR_ENV):
        runs_root = default_runs_root()
    else:
        runs_root = Path(default_cache_root()) / "runs"

    try:
        plant = _build_plant(
            args.family,
            {
                "ports": args.ports,
                "num_switches": args.switches,
                "num_servers": args.servers,
                "build_seed": args.build_seed,
            },
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    spec_hashes = [config.config_hash(), plant.content_hash()]
    sweep_id = f"lifecycle-{args.family}"
    completed = None
    resumed_from = None
    seed = args.seed
    if args.resume:
        try:
            previous = load_manifest(manifest_path(runs_root, args.resume))
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(
                f"error: cannot load manifest for run {args.resume!r} under "
                f"{runs_root}: {error}",
                file=sys.stderr,
            )
            return 2
        if previous.sweep_id != sweep_id:
            print(
                f"error: run {args.resume} was {previous.sweep_id!r}, not {sweep_id!r}",
                file=sys.stderr,
            )
            return 2
        if previous.spec_hashes[:1] != spec_hashes[:1]:
            print(
                f"error: run {args.resume} used a different lifecycle config "
                "(give the same flags to resume it)",
                file=sys.stderr,
            )
            return 2
        if previous.spec_hashes[1:] != spec_hashes[1:]:
            print(
                f"error: run {args.resume} was run on a different plant "
                "(give the same --switches, --ports, --servers and "
                "--build-seed to resume it)",
                file=sys.stderr,
            )
            return 2
        seed = previous.seed if previous.seed is not None else args.seed
        completed = load_journal(journal_path(runs_root, args.resume))
        resumed_from = args.resume
        log.info(
            "resuming run %s: %d journaled epoch(s)", args.resume, len(completed)
        )

    recorder = RunRecorder(
        sweep_id,
        scale="lifecycle",
        seed=seed,
        workers=0,
        spec_hashes=spec_hashes,
        runs_root=runs_root,
        resumed_from=resumed_from,
    )

    def observe(done: int, total: int, outcome) -> None:
        recorder.observe(done, total, outcome)
        if outcome.status == "failed":
            source = f"FAILED after {outcome.attempts} attempt(s)"
        elif outcome.cached:
            source = "journaled"
        else:
            source = f"{outcome.duration_s:.2f}s"
        log.info(
            "[%d/%d] epoch %s %s", done, total, outcome.point.scenario_hash[:12], source
        )

    result = run_lifecycle(
        plant,
        config,
        seed=seed,
        family=args.family,
        completed=completed,
        observer=observe,
        max_attempts=args.max_attempts,
    )
    manifest = recorder.finalize(runs_root=runs_root)
    log.info("manifest %s", manifest)

    print(
        f"lifecycle {args.family} ({plant.num_switches} switches, "
        f"{sum(plant.servers.values())} servers): {result.events_applied} events, "
        f"{len(result.epochs)} epoch(s), seed {seed}"
    )
    header = ["epoch", "time_h", "throughput", "availability", "failed_links", "failed_switches"]
    print("  " + "  ".join(f"{name:>15s}" for name in header))
    for record in result.epochs:
        print(
            "  "
            + "  ".join(
                f"{record[name]:15.4f}"
                if isinstance(record[name], float)
                else f"{record[name]:15d}"
                for name in header
            )
        )
    print(
        "  time-averaged throughput "
        f"{result.time_average('throughput'):.4f}, availability "
        f"{result.time_average('availability'):.4f}"
    )
    print(f"  run {recorder.record.run_id} (resume with: lifecycle run --resume ...)")
    if result.failed_epochs:
        print(
            f"{result.failed_epochs} epoch(s) failed after retries; resume the "
            "run to retry them",
            file=sys.stderr,
        )
        return 1
    return 0


def _lifecycle_main(argv: List[str]) -> int:
    from repro.telemetry import configure_logging

    args = build_lifecycle_parser().parse_args(argv)
    configure_logging(getattr(args, "verbose", 0))
    return _lifecycle_run(args)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    if argv and argv[0] == "lifecycle":
        return _lifecycle_main(argv[1:])
    if argv and argv[0] == "topo":
        return _topo_main(argv[1:])
    if argv and argv[0] == "sim":
        return _sim_main(argv[1:])
    if argv and argv[0] == "stats":
        return _stats_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)

    from repro.telemetry import configure_logging

    configure_logging(args.verbose)

    if args.list:
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0
    if not args.experiments:
        parser.error("no experiments given (use --list to see the available ids)")

    from repro.engine import run_sweep

    exit_code = 0
    for experiment_id in args.experiments:
        try:
            result = run_sweep(experiment_id, scale=args.scale, seed=args.seed)
        except (KeyError, ValueError) as error:
            print(f"error: {experiment_id}: {error}", file=sys.stderr)
            exit_code = 2
            continue
        print(format_table(result))
        print()
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
