"""Per-layer metrics measured from outside the program.

A traced repetition wraps the public functions of each ``repro`` layer in
``repro.telemetry.trace`` spans from benchmark code, enables the tracer with
an aggregating sink, and also reads the spans and counters the program
already emits (``lp.solve``, ``maxmin.fill``, ``aimd.rounds``,
``throughput.screen_rejects``, ...).  No file under ``src/`` is changed.

A layer's time is the *self* time of its spans: a span's duration minus the
time its child spans cover, as :class:`repro.telemetry.Tracer` records it.
Every span name maps to exactly one ``*_s`` metric (:data:`SECONDS`), so the
seconds metrics plus ``trace.other_s`` add up to the repetition's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from typing import Callable, Dict, List, Optional, Tuple

#: Benchmark span -> the public functions it wraps (``module:qualname``).
#: A function target is patched in every ``repro.*`` module that binds it,
#: because the experiments use ``from x import f``; a method is patched on
#: its class.
WRAPPED: Dict[str, List[str]] = {
    "engine.sweep": ["repro.engine.registry:run_sweep"],
    "flow.linprog": ["repro.flow.path_lp:linprog"],
    "flow.lp_structure": ["repro.flow.path_lp:shared_path_lp_structure"],
    "flow.decision": ["repro.flow.path_lp:PathLPStructure.solve_decision"],
    "flow.lp": [
        "repro.flow.path_lp:PathLPStructure.solve",
        "repro.flow.path_lp:max_concurrent_flow_path_lp",
        "repro.flow.mcf:max_concurrent_flow_edge_lp",
    ],
    "flow.throughput": [
        "repro.flow.throughput:normalized_throughput",
        "repro.flow.throughput:degraded_throughput",
        "repro.flow.throughput:supports_full_throughput",
        "repro.flow.throughput:max_servers_at_full_throughput",
    ],
    "flow.maxmin": ["repro.flow.maxmin:max_min_fair_allocation"],
    "routing.yen": ["repro.graphs.csr:k_shortest_path_indices"],
    "routing.ksp": [
        "repro.routing.ksp:all_pairs_k_shortest_paths",
        "repro.routing.ksp:k_shortest_paths",
    ],
    "routing.path_set": [
        "repro.routing.paths:shared_path_set",
        "repro.routing.paths:build_path_set",
    ],
    "routing.ecmp": [
        "repro.routing.ecmp:ecmp_paths",
        "repro.routing.ecmp:all_shortest_paths",
        "repro.routing.ecmp:ecmp_route_flows",
        "repro.routing.diversity:link_path_counts",
        "repro.routing.diversity:fraction_links_at_or_below",
    ],
    "simulation.fluid": [
        "repro.simulation.fluid:simulate_fluid",
        "repro.simulation.capacity:link_capacities",
    ],
    "simulation.aimd": ["repro.simulation.aimd:simulate_aimd"],
    "topologies.build": [
        "repro.topologies.jellyfish:JellyfishTopology.build",
        "repro.topologies.jellyfish:JellyfishTopology.from_equipment",
        "repro.topologies.jellyfish:JellyfishTopology.expand",
        "repro.topologies.fattree:FatTreeTopology.build",
        "repro.topologies.swdc:SmallWorldTopology.build",
        "repro.topologies.degree_diameter:DegreeDiameterTopology.build",
        "repro.topologies.base:Topology.copy",
        "repro.topologies.ensemble:single_rrg_core",
        "repro.cabling.containers:build_localized_jellyfish",
    ],
    "graphs.csr_build": [
        "repro.graphs.csr:csr_graph",
        "repro.graphs.csr:CSRGraph.from_arrays",
        "repro.topologies.core:TopologyCore.csr",
    ],
    "graphs.bfs": [
        "repro.graphs.csr:CSRGraph.hop_distance_matrix",
        "repro.graphs.csr:CSRGraph.distance_row",
        "repro.graphs.csr:CSRGraph.bfs_parent_tree",
        "repro.topologies.base:Topology.is_connected",
    ],
    "graphs.sampling": [
        "repro.graphs.sampling:sampled_path_length_stats",
        "repro.graphs.sampling:sampled_bisection_stats",
        "repro.graphs.sampling:sampled_throughput_bound",
    ],
    "lifecycle.apply": ["repro.lifecycle.state:LifecycleState.apply"],
    "lifecycle.update": ["repro.lifecycle.metrics:IncrementalMetrics.on_event"],
    "lifecycle.epoch": [
        "repro.lifecycle.engine:run_lifecycle",
        "repro.lifecycle.metrics:IncrementalMetrics.epoch",
        "repro.lifecycle.metrics:evaluate_epoch",
    ],
    "traffic.matrix": [
        "repro.traffic.matrices:random_permutation_traffic",
        "repro.traffic.matrices:all_to_all_traffic",
        "repro.traffic.matrices:stride_traffic",
        "repro.traffic.matrices:hotspot_traffic",
    ],
}

#: ``*_s`` metric -> the spans (benchmark and program) whose self time it sums.
SECONDS: Dict[str, Tuple[str, ...]] = {
    "flow.lp_solve_s": ("flow.linprog", "lp.solve"),
    "flow.lp_assemble_s": (
        "lp.assemble", "flow.lp_structure", "flow.lp", "flow.decision",
        "throughput.decide", "throughput.screen", "flow.throughput",
    ),
    "routing.yen_s": ("routing.yen", "routing.ksp"),
    "routing.path_set_s": ("routing.path_set",),
    "routing.ecmp_s": ("routing.ecmp",),
    "flow.maxmin_s": ("flow.maxmin", "maxmin.fill"),
    "simulation.fluid_s": ("simulation.fluid",),
    "simulation.aimd_s": ("simulation.aimd", "aimd.compile", "aimd.rounds"),
    "topologies.build_s": (
        "topologies.build", "rrg.sequential", "rrg.degree_budget",
        "rrg.stub_matching", "ensemble.build_core",
    ),
    "graphs.csr_build_s": ("graphs.csr_build",),
    "graphs.bfs_s": ("graphs.bfs", "bfs.batch", "bfs.block"),
    "graphs.sampling_s": ("graphs.sampling", "sampling.path_stats", "sampling.bisection"),
    "lifecycle.apply_s": ("lifecycle.apply", "lifecycle.update"),
    "lifecycle.epoch_s": ("lifecycle.epoch",),
    "traffic.matrix_s": ("traffic.matrix",),
    "engine.sweep_s": ("engine.sweep", "engine.point"),
}

#: Every per-layer metric a traced repetition reports, with its unit.
UNITS: Dict[str, str] = {
    "flow.lp_solve_s": "s",
    "flow.lp_solve_calls": "count",
    "flow.lp_iterations": "count",
    "flow.lp_nnz": "count",
    "flow.lp_assemble_s": "s",
    "flow.decision_fallback_ratio": "ratio",
    "flow.screen_reject_ratio": "ratio",
    "routing.yen_s": "s",
    "routing.yen_calls": "count",
    "routing.path_set_s": "s",
    "routing.ecmp_s": "s",
    "flow.maxmin_s": "s",
    "flow.maxmin_rounds": "count",
    "simulation.fluid_s": "s",
    "simulation.aimd_s": "s",
    "simulation.aimd_rounds": "count",
    "topologies.build_s": "s",
    "topologies.build_calls": "count",
    "graphs.csr_build_s": "s",
    "graphs.bfs_s": "s",
    "graphs.sampling_s": "s",
    "routing.path_set_hit_ratio": "ratio",
    "flow.lp_structure_hit_ratio": "ratio",
    "graphs.dist_memo_hit_ratio": "ratio",
    "lifecycle.apply_s": "s",
    "lifecycle.epoch_s": "s",
    "lifecycle.events": "count",
    "traffic.matrix_s": "s",
    "engine.sweep_s": "s",
    "process.cpu_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.other_s": "s",
}


class SpanTable:
    """Tracer sink that aggregates span records by name instead of keeping them.

    Installed as ``Tracer.events``; the tracer calls :meth:`append` once per
    completed span.  Memory stays bounded however many spans a workload
    emits, unlike the default ring buffer, which would drop the oldest.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, Dict[str, float]] = {}

    def append(self, record: dict) -> None:
        entry = self.spans.get(record["name"])
        if entry is None:
            entry = self.spans[record["name"]] = {"calls": 0, "self_s": 0.0, "cum_s": 0.0}
        entry["calls"] += 1
        entry["self_s"] += record["self_s"]
        entry["cum_s"] += record["dur_s"]
        for key, value in record["counters"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[key] = entry.get(key, 0) + value

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, {}).get("calls", 0))

    def total(self, name: str, key: str) -> float:
        return self.spans.get(name, {}).get(key, 0)


def _resolve(target: str) -> Tuple[object, str]:
    """``module:Qual.name`` -> (owner object, attribute name)."""
    module_name, qualname = target.split(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Instrumentation:
    """Wrap the layers' public functions in spans; undo it with :meth:`restore`.

    Use as a context manager around a traced repetition.  Entering enables
    the process tracer with a :class:`SpanTable` sink; leaving restores
    every patched binding and disables the tracer.
    """

    def __init__(self) -> None:
        self.table = SpanTable()
        self._originals: Dict[int, object] = {}  # id(wrapper) -> original
        self._class_patches: List[Tuple[type, str, object]] = []
        self._structures: "weakref.WeakSet" = weakref.WeakSet()
        self._build_depth = 0
        self._routed_pairs = 0
        self.root_counters: Dict[str, float] = {}

    # -- measured hooks (span, original function, args, kwargs) -> result --
    def _linprog(self, span, func, args, kwargs):
        result = func(*args, **kwargs)
        span.add(
            iterations=int(getattr(result, "nit", 0) or 0),
            nnz=int(kwargs["A_ub"].nnz + kwargs["A_eq"].nnz),
        )
        return result

    def _decision(self, span, func, args, kwargs):
        before = self.table.calls("flow.linprog")
        result = func(*args, **kwargs)
        # An IPM solve inside the guard band, or a failed one, is re-solved
        # with dual simplex: a second LP call inside one decision.
        span.add(fallbacks=int(self.table.calls("flow.linprog") - before > 1))
        return result

    def _lp_structure(self, span, func, args, kwargs):
        structure = func(*args, **kwargs)
        span.add(hits=int(structure in self._structures))
        self._structures.add(structure)
        return structure

    def _path_set(self, span, func, args, kwargs):
        pairs = args[1] if len(args) > 1 else kwargs["pairs"]
        before = self._routed_pairs
        result = func(*args, **kwargs)
        span.add(
            requested=sum(1 for source, target in pairs if source != target),
            routed=self._routed_pairs - before,
        )
        return result

    def _ksp(self, span, func, args, kwargs):
        pairs = args[1] if len(args) > 1 else kwargs["pairs"]
        self._routed_pairs += len(pairs)
        return func(*args, **kwargs)

    def _ecmp_pair(self, span, func, args, kwargs):
        self._routed_pairs += 1
        return func(*args, **kwargs)

    def _build(self, span, func, args, kwargs):
        span.add(top=int(self._build_depth == 0))
        self._build_depth += 1
        try:
            return func(*args, **kwargs)
        finally:
            self._build_depth -= 1

    def _hook(self, target: str) -> Optional[Callable]:
        return {
            "repro.flow.path_lp:linprog": self._linprog,
            "repro.flow.path_lp:PathLPStructure.solve_decision": self._decision,
            "repro.flow.path_lp:shared_path_lp_structure": self._lp_structure,
            "repro.routing.paths:shared_path_set": self._path_set,
            "repro.routing.ksp:all_pairs_k_shortest_paths": self._ksp,
            "repro.routing.ecmp:ecmp_paths": self._ecmp_pair,
        }.get(target, self._build if target in WRAPPED["topologies.build"] else None)

    # -- patching -----------------------------------------------------------
    def _wrap(self, func: Callable, span_name: str, hook: Optional[Callable]) -> Callable:
        from repro.telemetry import trace

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with trace(span_name) as span:
                if hook is None:
                    return func(*args, **kwargs)
                return hook(span, func, args, kwargs)

        self._originals[id(wrapper)] = func
        return wrapper

    def install(self) -> None:
        for span_name, targets in WRAPPED.items():
            for target in targets:
                owner, attr = _resolve(target)
                hook = self._hook(target)
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, (classmethod, staticmethod)):
                        patched = type(raw)(self._wrap(raw.__func__, span_name, hook))
                    else:
                        patched = self._wrap(raw, span_name, hook)
                    self._class_patches.append((owner, attr, raw))
                    setattr(owner, attr, patched)
                else:
                    original = getattr(owner, attr)
                    wrapper = self._wrap(original, span_name, hook)
                    for module in _repro_modules():
                        for name, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, name, wrapper)

    def restore(self) -> None:
        """Put back every original binding, including ones imported after install."""
        for owner, attr, raw in reversed(self._class_patches):
            setattr(owner, attr, raw)
        self._class_patches.clear()
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None and getattr(value, "__wrapped__", None) is original:
                    setattr(module, name, original)

    def __enter__(self) -> "Instrumentation":
        from repro import telemetry

        self.install()
        telemetry.enable().events = self.table
        return self

    def __exit__(self, *exc) -> bool:
        from repro import telemetry

        tracer = telemetry.get_tracer()
        self.root_counters = dict(tracer.root_counters) if tracer is not None else {}
        telemetry.disable()
        self.restore()
        return False

    # -- derived metrics ----------------------------------------------------
    def metrics(self, wall_s: float, memo_delta: Dict[str, int]) -> Dict[str, float]:
        """The per-layer metrics of :data:`UNITS` except ``trace.overhead``
        (which needs the untraced wall time) and ``process.cpu_s``."""
        table = self.table
        out: Dict[str, float] = {}
        attributed = 0.0
        for metric, spans in SECONDS.items():
            out[metric] = sum(table.total(name, "self_s") for name in spans)
            attributed += out[metric]
        out["flow.lp_solve_calls"] = table.calls("flow.linprog")
        out["flow.lp_iterations"] = table.total("flow.linprog", "iterations")
        out["flow.lp_nnz"] = table.total("flow.linprog", "nnz")
        out["flow.decision_fallback_ratio"] = _ratio(
            table.total("flow.decision", "fallbacks"), table.calls("flow.decision")
        )
        rejects = self.root_counters.get("throughput.screen_rejects", 0) + sum(
            entry.get("throughput.screen_rejects", 0) for entry in table.spans.values()
        )
        out["flow.screen_reject_ratio"] = _ratio(rejects, table.calls("throughput.screen"))
        out["routing.yen_calls"] = table.calls("routing.yen")
        out["flow.maxmin_rounds"] = table.total("maxmin.fill", "saturation_rounds")
        out["simulation.aimd_rounds"] = table.total("aimd.rounds", "rounds")
        out["topologies.build_calls"] = table.total("topologies.build", "top")
        requested = table.total("routing.path_set", "requested")
        out["routing.path_set_hit_ratio"] = _ratio(
            requested - table.total("routing.path_set", "routed"), requested
        )
        lookups = table.calls("flow.lp_structure")
        out["flow.lp_structure_hit_ratio"] = _ratio(
            table.total("flow.lp_structure", "hits"), lookups
        )
        out["graphs.dist_memo_hit_ratio"] = _ratio(
            memo_delta["hits"], memo_delta["hits"] + memo_delta["misses"]
        )
        out["lifecycle.events"] = table.calls("lifecycle.apply")
        out["trace.coverage"] = _ratio(attributed, wall_s)
        out["trace.other_s"] = wall_s - attributed
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
