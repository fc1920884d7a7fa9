"""Structured tracing: nestable spans, an in-process ring buffer, JSONL sink.

The tracer is the repo's single instrumentation primitive.  Kernels wrap
their phases in spans::

    from repro.telemetry import trace

    with trace("maxmin.fill", subflows=n) as span:
        ...
        span.add(rounds=rounds)

and attach **domain counters** (BFS frontier sweeps, Yen spur candidates,
max-min saturation rounds, LP assembly nnz, IPM iterations, AIMD rounds,
RRG splice repairs) either at span creation, via :meth:`Span.add`, or --
from code that has no span handle in scope -- via :func:`count`, which
credits the innermost active span.

Design constraints, in priority order:

1. **Zero overhead when disabled** (the default).  :func:`trace` returns a
   shared no-op span and :func:`count` returns immediately; no object is
   allocated, no clock is read.  Hot kernels therefore keep their hooks at
   function granularity (one span per kernel invocation, never one per
   inner-loop iteration) so the disabled-mode cost is a few hundred
   nanoseconds against kernels that run for at least tens of microseconds.
2. **No dependencies**: stdlib only.
3. **Crash-safe, multiprocess-safe event logs**: when a JSONL path is
   configured, each completed span is appended as one line and flushed, so
   concurrent worker processes interleave whole lines (each carries its
   ``pid``) and a killed run keeps everything already flushed.
4. **Thread-safe**: each thread keeps its own stack of open spans, and
   span indices, records and counter updates are taken under one lock.
   Work handed to another thread through :func:`in_current_span` opens its
   spans under the span that handed it over, not as new roots, so root
   spans still cover each wall-clock second once.  A span's ``self_s``
   subtracts only its children on its own thread: summed over all spans,
   self time is the busy time of every thread, which can exceed the wall
   time while helper threads run.

Enabling
--------
Programmatic: :func:`enable` / :func:`disable`.  Environmental:
``REPRO_TRACE=1`` enables the ring buffer only; ``REPRO_TRACE=<path>``
additionally appends events to ``<path>`` as JSONL.  The environment is
checked at import time, so ``multiprocessing`` pool workers (fork or spawn)
inherit tracing from the parent's environment without any plumbing.

Span records are plain dicts (JSON-ready)::

    {"i": 3, "name": "maxmin.fill", "t": 0.0123, "dur_s": 0.0041,
     "depth": 1, "parent": 2, "self_s": 0.0039,
     "counters": {"rounds": 17, "subflows": 240}, "pid": 12345}

``t`` is seconds since the tracer was created (on :data:`clock`, which the
benchmark scripts' timing also reads); ``parent`` is the ``i`` of
the enclosing span in the same process or ``None`` for roots; ``self_s``
is ``dur_s`` minus the cumulative duration of direct children on the same
thread, which is what ``repro stats`` aggregates as per-phase self time.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, IO, List, Optional, TypeVar

#: The single clock path for every measurement in the repo: tracer spans,
#: sweep point durations, and the ``record_*.py`` benchmark scripts all
#: read this callable, so perf numbers are comparable across surfaces.
clock = time.perf_counter

#: Environment variable enabling tracing (``1`` = ring buffer only,
#: anything else = also append JSONL events to that path).
TRACE_ENV = "REPRO_TRACE"

#: Completed spans retained in process (oldest evicted first).
DEFAULT_RING_SIZE = 65536

T = TypeVar("T")


class NullSpan:
    """Shared no-op span returned by :func:`trace` while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def add(self, **counters: Any) -> "NullSpan":
        return self


NULL_SPAN = NullSpan()


class Span:
    """One live span; becomes a record in the ring buffer when it exits."""

    __slots__ = ("_tracer", "name", "counters", "_start", "_index", "_parent", "_depth", "_child_s")

    def __init__(self, tracer: "Tracer", name: str, counters: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.counters = counters
        self._start = 0.0
        self._index = -1
        self._parent: Optional[int] = None
        self._depth = 0
        self._child_s = 0.0

    def add(self, **counters: Any) -> "Span":
        """Merge counters into the span (numeric values accumulate)."""
        with self._tracer._lock:
            _merge(self.counters, counters)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._start = clock()
        return self

    def __exit__(self, *exc: Any) -> bool:
        duration = clock() - self._start
        self._tracer._pop(self, duration)
        return False


def _merge(target: Dict[str, Any], counters: Dict[str, Any]) -> None:
    """Add numeric counters into ``target``; other values overwrite."""
    for key, value in counters.items():
        if key in target and isinstance(value, (int, float)) and not isinstance(value, bool):
            target[key] = target[key] + value
        else:
            target[key] = value


class _ThreadSpans(threading.local):
    """One thread's open spans, innermost last, and the span of another
    thread they hang under (``None`` unless set by :func:`in_current_span`)."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.parent: Optional[Span] = None

    def innermost(self) -> Optional[Span]:
        return self.stack[-1] if self.stack else self.parent


class Tracer:
    """Collects span records into a ring buffer and an optional JSONL sink."""

    def __init__(
        self,
        ring_size: int = DEFAULT_RING_SIZE,
        jsonl_path: Optional[str] = None,
    ) -> None:
        self.events: "deque[dict]" = deque(maxlen=ring_size)
        self.jsonl_path = os.fspath(jsonl_path) if jsonl_path is not None else None
        self.root_counters: Dict[str, Any] = {}
        self.epoch = clock()
        self._threads = _ThreadSpans()
        self._lock = threading.Lock()
        self._next_index = 0
        self._sink: Optional[IO[str]] = None
        self._pid = os.getpid()

    # -- span lifecycle -------------------------------------------------
    def span(self, name: str, counters: Dict[str, Any]) -> Span:
        return Span(self, name, counters)

    def _push(self, span: Span) -> None:
        threads = self._threads
        parent = threads.innermost()
        if parent is not None:
            span._parent = parent._index
            span._depth = parent._depth + 1
        with self._lock:
            span._index = self._next_index
            self._next_index += 1
        threads.stack.append(span)

    def _pop(self, span: Span, duration: float) -> None:
        stack = self._threads.stack
        # Tolerate exits out of order (a span used without ``with`` never
        # enters the stack): unwind to this span if present, else drop.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - defensive
            while stack and stack.pop() is not span:
                pass
        if stack:
            stack[-1]._child_s += duration
        record = {
            "i": span._index,
            "name": span.name,
            "t": round(span._start - self.epoch, 9),
            "dur_s": duration,
            "depth": span._depth,
            "parent": span._parent,
            "self_s": max(duration - span._child_s, 0.0),
            "counters": span.counters,
            "pid": self._pid,
        }
        with self._lock:
            self.events.append(record)
            if self.jsonl_path is not None:
                self._write(record)

    def count(self, name: str, value: Any = 1) -> None:
        """Credit a counter to the innermost active span (or the root)."""
        span = self._threads.innermost()
        target = self.root_counters if span is None else span.counters
        with self._lock:
            _merge(target, {name: value})

    # -- sink -----------------------------------------------------------
    def _write(self, record: dict) -> None:
        sink = self._sink
        if sink is None:
            try:
                sink = self._sink = open(self.jsonl_path, "a", encoding="ascii")
            except OSError:
                self.jsonl_path = None  # never retry a broken sink
                return
        try:
            # One write + flush per record: whole lines hit the file even if
            # several worker processes append concurrently or the run dies.
            sink.write(json.dumps(record, default=_json_default) + "\n")
            sink.flush()
        except (OSError, TypeError, ValueError):  # pragma: no cover
            self.jsonl_path = None

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                except OSError:  # pragma: no cover
                    pass
                self._sink = None


def _json_default(value: Any) -> Any:
    """Fallback serializer: numpy scalars and other reprs become floats/strings."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return repr(value)


def summarize_events(events) -> Dict[str, Dict[str, float]]:
    """Aggregate span records by name: call count, cumulative and self time."""
    totals: Dict[str, Dict[str, float]] = {}
    for record in events:
        entry = totals.setdefault(
            record["name"], {"calls": 0, "cum_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["cum_s"] += record["dur_s"]
        entry["self_s"] += record.get("self_s", record["dur_s"])
    return totals


# --------------------------------------------------------------------------- #
# Module-level switchboard
# --------------------------------------------------------------------------- #
_TRACER: Optional[Tracer] = None


def trace(name: str, **counters: Any):
    """Start a span (use as a context manager); no-op while tracing is off."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, counters)


def count(name: str, value: Any = 1) -> None:
    """Credit a domain counter to the innermost active span; no-op when off."""
    tracer = _TRACER
    if tracer is None:
        return
    tracer.count(name, value)


def in_current_span(fn: Callable[..., T]) -> Callable[..., T]:
    """``fn``, set to run on another thread under the caller's innermost span.

    Spans that ``fn`` opens hang under that span instead of becoming roots,
    and its :func:`count` calls outside its own spans credit that span.
    Returns ``fn`` itself while tracing is off.
    """
    tracer = _TRACER
    if tracer is None:
        return fn
    parent = tracer._threads.innermost()

    @functools.wraps(fn)
    def run(*args: Any, **kwargs: Any) -> T:
        threads = tracer._threads
        previous, threads.parent = threads.parent, parent
        try:
            return fn(*args, **kwargs)
        finally:
            threads.parent = previous

    return run


def is_enabled() -> bool:
    return _TRACER is not None


def get_tracer() -> Optional[Tracer]:
    return _TRACER


def enable(
    jsonl_path: Optional[str] = None, ring_size: int = DEFAULT_RING_SIZE
) -> Tracer:
    """Install (and return) a fresh process-global tracer."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = Tracer(ring_size=ring_size, jsonl_path=jsonl_path)
    return _TRACER


def disable() -> None:
    """Tear the global tracer down; :func:`trace` reverts to no-ops."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = None


def enable_in_subprocesses(jsonl_path: Optional[str] = None) -> None:
    """Arrange for worker processes to trace too (they read ``REPRO_TRACE``).

    Sets the environment variable the module checks at import, which both
    ``fork`` children (inherit the env directly) and ``spawn`` children
    (re-import this module) observe.
    """
    os.environ[TRACE_ENV] = jsonl_path if jsonl_path else "1"


@atexit.register
def _close_at_exit() -> None:  # pragma: no cover - exercised at interpreter exit
    if _TRACER is not None:
        _TRACER.close()


def _activate_from_env() -> None:
    value = os.environ.get(TRACE_ENV, "").strip()
    if not value or value == "0":
        return
    path = None if value.lower() in ("1", "true", "on") else value
    enable(jsonl_path=path)


_activate_from_env()
