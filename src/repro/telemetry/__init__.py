"""Instrumentation layer: structured tracing, run telemetry, stats reporting.

Zero-dependency observability for the simulator, in four pieces:

- :mod:`repro.telemetry.tracer` -- :func:`trace` spans with domain counters,
  an in-process ring buffer, and an optional JSONL event log.  Compiles to
  no-ops when disabled (the default), so instrumented kernels keep their
  benchmarked speed and bit-identical parity with the oracles in
  ``tests/oracles``.
- :mod:`repro.telemetry.manifest` -- :class:`RunRecord` manifests persisted
  beside the result cache: git rev, seed, spec hashes, per-point
  duration / cache status / peak RSS / worker id.
- :mod:`repro.telemetry.log` -- ``logging``-based diagnostics (quiet by
  default; the CLI's ``-v`` raises verbosity).
- :mod:`repro.telemetry.report` -- the ``repro stats`` rendering: latency
  percentiles, cache hit rates, slowest phases, text flame views.

See ``docs/observability.md`` for span naming conventions and the manifest
schema.
"""

from repro.telemetry.log import configure as configure_logging
from repro.telemetry.log import get_logger
from repro.telemetry.manifest import (
    PointRecord,
    RunRecord,
    RunRecorder,
    default_runs_root,
    journal_path,
    load_journal,
    load_manifest,
    load_manifests,
    manifest_path,
    write_manifest,
)
from repro.telemetry.tracer import (
    NULL_SPAN,
    Span,
    TRACE_ENV,
    Tracer,
    clock,
    count,
    disable,
    enable,
    enable_in_subprocesses,
    get_tracer,
    in_current_span,
    is_enabled,
    summarize_events,
    trace,
)

__all__ = [
    "NULL_SPAN",
    "PointRecord",
    "RunRecord",
    "RunRecorder",
    "Span",
    "TRACE_ENV",
    "Tracer",
    "clock",
    "configure_logging",
    "count",
    "default_runs_root",
    "disable",
    "enable",
    "enable_in_subprocesses",
    "get_logger",
    "get_tracer",
    "in_current_span",
    "is_enabled",
    "journal_path",
    "load_journal",
    "load_manifest",
    "load_manifests",
    "manifest_path",
    "summarize_events",
    "trace",
    "write_manifest",
]
