"""Supervised sweep execution: caching, dedup, retries, timeouts, quarantine.

:class:`SweepRunner` executes a list of :class:`~repro.engine.spec.ScenarioPoint`
in four passes:

0. **Journal pass** -- when a resume journal is supplied (``completed``),
   points whose scenario hash already has a journaled value are materialized
   immediately with status ``"journaled"`` and never re-execute.
1. **Cache pass** -- every remaining point is looked up in the (optional)
   result cache; hits are materialized immediately.
2. **Deduplication** -- remaining points with identical scenario hashes are
   collapsed so each distinct scenario executes exactly once, however many
   sweeps reference it.
3. **Execution** -- distinct scenarios run serially in-process
   (``workers <= 1`` without a timeout or memory budget) or under a
   *supervised* worker pool: dedicated worker processes fed over pipes, with
   per-point wall-clock deadlines, per-point memory budgets (an ``RLIMIT_AS``
   soft cap applied inside the worker, so an overrun raises a catchable
   ``MemoryError`` classified as ``oom`` instead of drawing the kernel OOM
   killer), detection of worker death (a crashed or OOM-killed worker is
   noticed through its process sentinel, never hung on -- signal deaths are
   classified ``signal``, ``os._exit`` deaths ``crash``), bounded retry with
   exponential backoff and deterministic jitter, and quarantine of poison
   points after ``max_attempts``.

Resource-exhaustion failures (``oom`` / ``signal`` / ``timeout``) do not
retry the identical computation: the runner re-dispatches the point one rung
down the :data:`~repro.resources.PROFILE_LADDER` -- halved kernel scratch
budgets, then sampled estimators, then reduced trial counts -- so sweeps
complete with degraded-but-honest values (the outcome records its
``degradation_level`` and profile; degraded values are never written to the
result cache) instead of quarantining.  Plain errors keep the existing
backoff/quarantine path.

A quarantined point does not abort the sweep: every healthy point still
completes, the outcome carries ``status="failed"`` with a structured
:class:`PointFailure`, and -- unless ``raise_on_failure=False`` -- the run
ends by raising :class:`SweepFailure` so programmatic callers cannot
mistake a partial sweep for a complete one.  Whatever the execution mode,
outcomes are returned in input order, so assembling a figure from sweep
values is a plain ``zip`` with the grid.

Fault injection for tests goes through :mod:`repro.testing.chaos`
(``REPRO_FAULTS``); see ``docs/robustness.md`` for semantics.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.cache import ResultCache
from repro.engine.spec import ScenarioPoint
from repro.resources import (
    MAX_DEGRADATION_LEVEL,
    RESOURCE_FAULT_KINDS,
    ExecutionProfile,
    apply_memory_budget,
    profile_for_level,
)
from repro.telemetry import count, get_logger, trace
from repro.telemetry.manifest import peak_rss_kb
from repro.telemetry.tracer import clock
from repro.testing.chaos import active_plan

#: ``progress(done, total, outcome)`` called after every completed point.
ProgressCallback = Callable[[int, int, "PointOutcome"], None]

#: Outcome statuses.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_JOURNALED = "journaled"

log = get_logger("engine.runner")


class SweepError(RuntimeError):
    """A scenario point failed to execute."""


class SweepFailure(SweepError):
    """Raised after a sweep completes with quarantined points.

    The sweep is *not* aborted on the first failure: every healthy point
    runs to completion first, and :attr:`outcomes` holds the full result
    list (in input order) so callers can salvage partial results.
    """

    def __init__(self, message: str, outcomes: List["PointOutcome"]) -> None:
        super().__init__(message)
        self.outcomes = outcomes

    @property
    def failures(self) -> List["PointOutcome"]:
        return [o for o in self.outcomes if o.status == STATUS_FAILED]


@dataclass
class PointFailure:
    """Structured description of why a point was quarantined.

    ``kind`` is the *final* attempt's failure mode (``"error"`` for a
    raised exception, ``"timeout"`` for a wall-clock deadline kill,
    ``"oom"`` for a ``MemoryError`` under the point's memory budget,
    ``"signal"`` for a worker killed by a signal -- e.g. the real OOM
    killer's SIGKILL -- and ``"crash"`` for any other worker death);
    ``history`` lists every attempt's kind in order.  ``exitcode`` is the
    dead worker's exit code for crashes/signals (negative = signal number).
    """

    kind: str
    message: str
    exitcode: Optional[int] = None
    history: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class PointOutcome:
    """Result of one scenario point.

    ``cached`` is true when the value came from the on-disk cache, from the
    resume journal, or from another identical point executed earlier in the
    same sweep.  For cached points ``duration_s`` is the cache-lookup time,
    not an execution time; ``worker`` is the pid of the process that
    executed the point (0 for cache hits and dedup followers) and
    ``peak_rss_kb`` that process's peak RSS high-water mark after the point
    ran (0 when not measured).  ``status`` is ``"ok"``, ``"journaled"``
    (skipped via a resume journal) or ``"failed"`` (quarantined; ``value``
    is ``None`` and ``failure`` describes why); ``attempts`` counts
    execution attempts including retries (0 for journal/cache hits).

    ``degradation_level`` is the ladder rung the final attempt ran at (0 =
    full fidelity) with ``profile`` the matching
    :meth:`~repro.resources.ExecutionProfile.as_dict` (``None`` at rung 0),
    and ``history`` the failure kinds of every *earlier* attempt -- so a
    point that succeeded after degrading still reports how it got there.
    Dedup followers inherit all three from their primary.
    """

    point: ScenarioPoint
    value: Any
    cached: bool
    duration_s: float
    worker: int = 0
    peak_rss_kb: int = 0
    status: str = STATUS_OK
    attempts: int = 0
    failure: Optional[PointFailure] = None
    degradation_level: int = 0
    profile: Optional[dict] = None
    history: List[str] = field(default_factory=list)


@dataclass
class FaultStats:
    """Per-run fault counters (reset at the start of every :meth:`run`).

    ``ooms`` counts budgeted ``MemoryError`` failures, ``signals`` workers
    killed by a signal (e.g. the kernel OOM killer), and ``degraded``
    ladder escalations (re-dispatches one profile rung down); ``retries``
    includes the degraded re-dispatches.
    """

    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    ooms: int = 0
    signals: int = 0
    errors: int = 0
    degraded: int = 0
    quarantined: int = 0
    journal_skips: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def __str__(self) -> str:
        return (
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{self.crashes} crashes, {self.ooms} ooms, "
            f"{self.signals} signals, {self.errors} errors, "
            f"{self.degraded} degraded, {self.quarantined} quarantined, "
            f"{self.journal_skips} journal skips"
        )


def backoff_delay(
    scenario_hash: str, attempt: int, base_s: float, cap_s: float
) -> float:
    """Exponential backoff with deterministic jitter.

    ``base_s * 2**(attempt-1)``, scaled by a jitter factor in [1.0, 1.5)
    derived from ``sha256(scenario_hash:attempt)`` -- reproducible for a
    given point and attempt, decorrelated across points so retry storms
    spread out -- and capped at ``cap_s``.
    """
    digest = hashlib.sha256(f"{scenario_hash}:{attempt}".encode("ascii")).digest()
    jitter = 1.0 + (int.from_bytes(digest[:8], "big") / 2.0**64) * 0.5
    return min(base_s * (2.0 ** max(attempt - 1, 0)) * jitter, cap_s)


class _Task:
    """One distinct scenario in flight: its grid index, point and attempts."""

    __slots__ = (
        "index", "point", "attempts", "history", "last_message",
        "last_exitcode", "degradation_level",
    )

    def __init__(self, index: int, point: ScenarioPoint) -> None:
        self.index = index
        self.point = point
        self.attempts = 0
        self.history: List[str] = []
        self.last_message = ""
        self.last_exitcode: Optional[int] = None
        self.degradation_level = 0

    def profile(self) -> Optional[ExecutionProfile]:
        """The ladder rung to execute at (``None`` = full fidelity)."""
        if self.degradation_level <= 0:
            return None
        return profile_for_level(self.degradation_level)


def _execute_point(
    index: int,
    point: ScenarioPoint,
    attempt: int,
    profile: Optional[ExecutionProfile] = None,
) -> Tuple[Any, float]:
    """Run one point (with the chaos hook) and return ``(value, duration)``."""
    plan = active_plan()
    if plan is not None:
        plan.on_execute(index, point.scenario_hash, point.target, attempt)
    start = clock()
    with trace(
        "engine.point",
        target=point.target,
        attempt=attempt,
        degradation=profile.level if profile is not None else 0,
    ):
        value = point.execute(profile)
    return value, clock() - start


def _worker_main(conn) -> None:
    """Supervised pool worker: execute tasks from the pipe until told to stop.

    Exceptions raised by a point are *reported*, never allowed to kill the
    worker -- a ``MemoryError`` under the task's memory budget reports as a
    ``"oom"`` failure, anything else as ``"error"``.  Only a real crash
    (``os._exit``, OOM kill, signal) ends the process, which the supervisor
    notices through the process sentinel.  The budget's rlimit is restored
    *before* any pipe send, so reporting (including pickling a large value)
    can never itself die of the point's budget.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if task is None:
            return
        index, point, attempt, profile, memory_mb = task
        restore = apply_memory_budget(memory_mb) if memory_mb else None
        try:
            value, duration = _execute_point(index, point, attempt, profile)
        except KeyboardInterrupt:
            return
        except BaseException as error:
            if restore is not None:
                restore()
            kind = "oom" if isinstance(error, MemoryError) else "error"
            try:
                conn.send(("fail", index, kind, f"{type(error).__name__}: {error}"))
            except (OSError, ValueError):
                return
            continue
        if restore is not None:
            restore()
        try:
            conn.send(("ok", index, value, duration, os.getpid(), peak_rss_kb()))
        except (OSError, ValueError):
            return


class _WorkerHandle:
    """One supervised worker process plus its command/result pipe."""

    __slots__ = ("context", "process", "conn", "task", "deadline")

    def __init__(self, context) -> None:
        self.context = context
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None
        self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = self.context.Pipe()
        self.process = self.context.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def dispatch(
        self,
        task: _Task,
        timeout_s: Optional[float],
        memory_mb: Optional[float] = None,
    ) -> None:
        task.attempts += 1
        self.task = task
        self.deadline = clock() + timeout_s if timeout_s is not None else None
        self.conn.send(
            (task.index, task.point, task.attempts, task.profile(), memory_mb)
        )

    def discard(self) -> None:
        """Kill the process (hung, crashed, or mid-task) and close the pipe."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - stuck in kernel
                self.process.kill()
        self.process.join(timeout=5.0)

    def respawn(self) -> None:
        self.discard()
        self.task = None
        self.deadline = None
        self._spawn()

    def shutdown(self) -> None:
        """Graceful stop for an idle worker at end of sweep."""
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - ignored the stop
            self.process.terminate()
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class SweepRunner:
    """Run scenario points, optionally supervised, against a result cache.

    Parameters
    ----------
    workers:
        ``0`` or ``1`` runs everything serially in-process (no pool
        overhead; the default, and what :func:`~repro.engine.registry.run_sweep`
        uses when given no runner).
        ``n > 1`` shards distinct scenarios across ``n`` supervised worker
        processes.  Setting ``timeout_s`` forces supervised execution even
        for ``workers <= 1`` (a single supervised worker), because a hung
        point cannot be preempted in-process.
    cache:
        A :class:`~repro.engine.cache.ResultCache`, or ``None`` to disable
        caching entirely.
    progress:
        Optional callback invoked after every completed point.
    timeout_s:
        Per-point wall-clock deadline.  A point past its deadline has its
        worker terminated, counts a ``timeout`` fault, and is retried with
        backoff.  ``None`` (default) disables deadlines.
    memory_mb:
        Per-point memory budget.  Each supervised worker caps its address
        space (``RLIMIT_AS`` soft limit, with a safety margin over the
        worker's baseline) before executing a point, so an overrun raises
        a catchable ``MemoryError`` classified as an ``oom`` fault instead
        of drawing the kernel OOM killer.  Like ``timeout_s``, a budget
        forces supervised execution even for ``workers <= 1``.  ``None``
        (default) disables budgets.
    degrade:
        When true (default), a point failing on resource exhaustion
        (``oom`` / ``signal`` / ``timeout``) is re-dispatched one rung down
        the degradation ladder (see :mod:`repro.resources`) instead of
        retrying identically, until the ladder bottoms out at rung
        ``MAX_DEGRADATION_LEVEL``.  Ladder escalations do not consume
        ``max_attempts`` (a point may use one extra attempt per rung);
        plain errors never escalate.
    max_attempts:
        Total execution attempts per distinct scenario before it is
        quarantined (default 3: one initial try plus two retries).
    backoff_base_s / backoff_cap_s:
        Exponential-backoff schedule between retries; see
        :func:`backoff_delay`.  Jitter is deterministic per (point,
        attempt).
    completed:
        Optional mapping ``scenario_hash -> value`` (a loaded resume
        journal); matching points are materialized as ``"journaled"``
        outcomes without executing or touching the cache.
    raise_on_failure:
        When true (default), a sweep that quarantined any point raises
        :class:`SweepFailure` *after* completing every healthy point.
        When false, :meth:`run` returns the mixed outcome list and the
        caller inspects ``status`` itself (what the CLI does to print a
        failure report).

    After each :meth:`run`, :attr:`fault_stats` holds the run's
    retry/timeout/crash/error/quarantine counters.
    """

    def __init__(
        self,
        workers: int = 0,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
        *,
        timeout_s: Optional[float] = None,
        memory_mb: Optional[float] = None,
        degrade: bool = True,
        max_attempts: int = 3,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 30.0,
        completed: Optional[Mapping[str, Any]] = None,
        raise_on_failure: bool = True,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None to disable)")
        if memory_mb is not None and memory_mb <= 0:
            raise ValueError("memory_mb must be positive (or None to disable)")
        self.workers = workers
        self.cache = cache
        self.progress = progress
        self.timeout_s = timeout_s
        self.memory_mb = memory_mb
        self.degrade = degrade
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.completed = dict(completed) if completed else None
        self.raise_on_failure = raise_on_failure
        self.fault_stats = FaultStats()

    def run(self, points: Sequence[ScenarioPoint]) -> List[PointOutcome]:
        """Execute ``points`` and return outcomes in input order."""
        points = list(points)
        total = len(points)
        outcomes: List[Optional[PointOutcome]] = [None] * total
        completed_count = 0
        self.fault_stats = FaultStats()

        def finish(index: int, outcome: PointOutcome) -> None:
            nonlocal completed_count
            outcomes[index] = outcome
            completed_count += 1
            if self.progress is not None:
                self.progress(completed_count, total, outcome)

        # Pass 0: resume-journal skips (never re-executed, never re-fetched).
        pending: List[Tuple[int, ScenarioPoint]] = []
        for index, point in enumerate(points):
            if self.completed is not None and point.scenario_hash in self.completed:
                self.fault_stats.journal_skips += 1
                finish(
                    index,
                    PointOutcome(
                        point,
                        self.completed[point.scenario_hash],
                        cached=True,
                        duration_s=0.0,
                        status=STATUS_JOURNALED,
                    ),
                )
                continue
            pending.append((index, point))

        # Pass 1: cache lookups (timed, so cached points report their actual
        # lookup cost instead of a flat 0.0).
        uncached: List[Tuple[int, ScenarioPoint]] = []
        for index, point in pending:
            if self.cache is not None:
                start = clock()
                hit, value = self.cache.fetch(point)
                lookup_s = clock() - start
                if hit:
                    finish(
                        index,
                        PointOutcome(point, value, cached=True, duration_s=lookup_s),
                    )
                    continue
            uncached.append((index, point))

        # Pass 2: collapse identical scenarios so each executes once.
        primaries: Dict[str, _Task] = {}
        followers: Dict[str, List[int]] = {}
        for index, point in uncached:
            scenario_hash = point.scenario_hash
            if scenario_hash in primaries:
                followers.setdefault(scenario_hash, []).append(index)
            else:
                primaries[scenario_hash] = _Task(index, point)
        work = list(primaries.values())

        # Pass 3: execute distinct scenarios, serially or supervised.
        def on_success(
            task: _Task, value: Any, duration: float, worker: int, rss_kb: int
        ) -> None:
            point = points[task.index]
            profile = task.profile()
            profile_dict = profile.as_dict() if profile is not None else None
            if self.cache is not None and task.degradation_level == 0:
                # Degraded values are honest but not canonical: caching one
                # under the scenario hash would serve it to later runs as if
                # it were the full-fidelity result.
                self.cache.store(point, value)
            finish(
                task.index,
                PointOutcome(
                    point,
                    value,
                    cached=False,
                    duration_s=duration,
                    worker=worker,
                    peak_rss_kb=rss_kb,
                    attempts=task.attempts,
                    degradation_level=task.degradation_level,
                    profile=profile_dict,
                    history=list(task.history),
                ),
            )
            for follower_index in followers.get(point.scenario_hash, ()):
                finish(
                    follower_index,
                    PointOutcome(
                        points[follower_index],
                        value,
                        cached=True,
                        duration_s=0.0,
                        degradation_level=task.degradation_level,
                        profile=profile_dict,
                        history=list(task.history),
                    ),
                )

        def on_failure(task: _Task) -> None:
            point = points[task.index]
            profile = task.profile()
            failure = PointFailure(
                kind=task.history[-1] if task.history else "error",
                message=task.last_message,
                exitcode=task.last_exitcode,
                history=list(task.history),
            )
            log.warning(
                "quarantined %s (%s) after %d attempt(s): %s: %s",
                point.scenario_hash[:12],
                point.target,
                task.attempts,
                failure.kind,
                failure.message,
            )
            for outcome_index in (task.index, *followers.get(point.scenario_hash, ())):
                finish(
                    outcome_index,
                    PointOutcome(
                        points[outcome_index],
                        None,
                        cached=False,
                        duration_s=0.0,
                        status=STATUS_FAILED,
                        attempts=task.attempts,
                        failure=failure,
                        degradation_level=task.degradation_level,
                        profile=profile.as_dict() if profile is not None else None,
                        history=list(task.history),
                    ),
                )

        if work:
            pool_workers = self.workers
            needs_supervisor = self.timeout_s is not None or self.memory_mb is not None
            if pool_workers == 0 and needs_supervisor:
                pool_workers = 1
            if pool_workers > 1 or (pool_workers == 1 and needs_supervisor):
                self._run_supervised(
                    work, min(pool_workers, len(work)), on_success, on_failure
                )
            else:
                self._run_serial(work, on_success, on_failure)

        assert all(outcome is not None for outcome in outcomes)
        results: List[PointOutcome] = outcomes  # type: ignore[assignment]
        failures = [o for o in results if o.status == STATUS_FAILED]
        if failures and self.raise_on_failure:
            detail = "; ".join(
                f"{o.point.scenario_hash[:12]} ({o.point.target}) "
                f"{o.failure.kind} after {o.attempts} attempt(s): {o.failure.message}"
                for o in failures[:5]
            )
            raise SweepFailure(
                f"{len(failures)} of {total} scenario point(s) failed: {detail}",
                results,
            )
        return results

    def run_values(self, points: Sequence[ScenarioPoint]) -> List[Any]:
        """Like :meth:`run` but returning only the values, in input order."""
        return [outcome.value for outcome in self.run(points)]

    # ------------------------------------------------------------------ #
    # Failure accounting shared by both execution modes
    # ------------------------------------------------------------------ #
    def _note_failure(
        self, task: _Task, kind: str, message: str, exitcode: Optional[int] = None
    ) -> None:
        task.history.append(kind)
        task.last_message = message
        task.last_exitcode = exitcode
        stats = self.fault_stats
        if kind == "timeout":
            stats.timeouts += 1
        elif kind == "crash":
            stats.crashes += 1
        elif kind == "oom":
            stats.ooms += 1
        elif kind == "signal":
            stats.signals += 1
        else:
            stats.errors += 1
        count(f"engine.{kind}s")
        log.warning(
            "point %s (%s) attempt %d/%d failed: %s: %s",
            task.point.scenario_hash[:12],
            task.point.target,
            task.attempts,
            self.max_attempts,
            kind,
            message,
        )

    def _after_failure(
        self,
        task: _Task,
        delayed: List[Tuple[float, _Task]],
        on_failure: Callable[[_Task], None],
    ) -> int:
        """Requeue with backoff or quarantine; returns 1 when terminal.

        Resource-exhaustion failures (``oom``/``signal``/``timeout``)
        escalate the degradation ladder one rung before requeueing --
        retrying the identical computation would just exhaust the same
        resource -- and each escalation grants one attempt beyond
        ``max_attempts`` (bounded by the ladder depth), so a point is never
        quarantined without having tried its cheapest honest mode.  Plain
        errors keep the unmodified backoff/quarantine path.
        """
        kind = task.history[-1] if task.history else "error"
        escalate = (
            self.degrade
            and kind in RESOURCE_FAULT_KINDS
            and task.degradation_level < MAX_DEGRADATION_LEVEL
        )
        if task.attempts < self.max_attempts or escalate:
            if escalate:
                task.degradation_level += 1
                self.fault_stats.degraded += 1
                count("engine.degraded")
                log.warning(
                    "degrading %s to ladder rung %d after %s",
                    task.point.scenario_hash[:12],
                    task.degradation_level,
                    kind,
                )
            self.fault_stats.retries += 1
            count("engine.retries")
            delay = backoff_delay(
                task.point.scenario_hash,
                task.attempts,
                self.backoff_base_s,
                self.backoff_cap_s,
            )
            log.warning(
                "retrying %s in %.2fs (attempt %d/%d, rung %d)",
                task.point.scenario_hash[:12],
                delay,
                task.attempts + 1,
                self.max_attempts,
                task.degradation_level,
            )
            delayed.append((clock() + delay, task))
            return 0
        self.fault_stats.quarantined += 1
        count("engine.quarantined")
        on_failure(task)
        return 1

    # ------------------------------------------------------------------ #
    # Serial in-process execution (retries, no preemptive timeouts)
    # ------------------------------------------------------------------ #
    def _run_serial(self, work, on_success, on_failure) -> None:
        delayed: List[Tuple[float, _Task]] = []
        for task in work:
            while True:
                task.attempts += 1
                try:
                    value, duration = _execute_point(
                        task.index, task.point, task.attempts, task.profile()
                    )
                except KeyboardInterrupt:
                    raise
                except Exception as error:
                    kind = "oom" if isinstance(error, MemoryError) else "error"
                    self._note_failure(
                        task, kind, f"{type(error).__name__}: {error}"
                    )
                    if self._after_failure(task, delayed, on_failure):
                        break
                    eligible_at, _ = delayed.pop()
                    time.sleep(max(eligible_at - clock(), 0.0))
                    continue
                on_success(task, value, duration, os.getpid(), peak_rss_kb())
                break

    # ------------------------------------------------------------------ #
    # Supervised pool execution
    # ------------------------------------------------------------------ #
    def _run_supervised(self, work, num_workers, on_success, on_failure) -> None:
        context = multiprocessing.get_context()
        ready: "deque[_Task]" = deque(work)
        delayed: List[Tuple[float, _Task]] = []
        outstanding = len(work)
        workers = [_WorkerHandle(context) for _ in range(max(num_workers, 1))]
        try:
            while outstanding > 0:
                now = clock()
                if delayed:
                    due = [task for at, task in delayed if at <= now]
                    if due:
                        delayed = [(at, task) for at, task in delayed if at > now]
                        ready.extend(due)
                for worker in workers:
                    if worker.task is None and ready:
                        if not worker.process.is_alive():
                            worker.respawn()
                        worker.dispatch(
                            ready.popleft(), self.timeout_s, self.memory_mb
                        )
                busy = [w for w in workers if w.task is not None]
                if not busy:
                    # Nothing in flight: everything outstanding is backing off.
                    next_at = min(at for at, _ in delayed)
                    time.sleep(max(next_at - clock(), 0.0))
                    continue
                waits = [w.deadline - now for w in busy if w.deadline is not None]
                waits.extend(at - now for at, _ in delayed)
                timeout = max(min(waits), 0.0) if waits else None
                conns = {w.conn: w for w in busy}
                sentinels = {w.process.sentinel: w for w in busy}
                ready_objects = _connection_wait(
                    list(conns) + list(sentinels), timeout
                )
                # Results first: a worker that reported and then exited must
                # not have its completed task miscounted as a crash.
                for obj in ready_objects:
                    worker = conns.get(obj)
                    if worker is not None and worker.task is not None:
                        outstanding -= self._handle_message(
                            worker, delayed, on_success, on_failure
                        )
                for obj in ready_objects:
                    worker = sentinels.get(obj)
                    if worker is None or worker.task is None:
                        continue
                    if worker.process.is_alive():  # pragma: no cover - spurious
                        continue
                    task = worker.task
                    exitcode = worker.process.exitcode
                    worker.respawn()
                    self._note_worker_death(task, exitcode)
                    outstanding -= self._after_failure(task, delayed, on_failure)
                # Deadlines last, after any just-delivered results.
                now = clock()
                for worker in workers:
                    if (
                        worker.task is not None
                        and worker.deadline is not None
                        and now >= worker.deadline
                    ):
                        task = worker.task
                        worker.respawn()
                        self._note_failure(
                            task,
                            "timeout",
                            f"exceeded {self.timeout_s:g}s wall-clock timeout",
                        )
                        outstanding -= self._after_failure(task, delayed, on_failure)
        finally:
            for worker in workers:
                if worker.task is not None:
                    worker.discard()
                else:
                    worker.shutdown()

    def _note_worker_death(self, task: _Task, exitcode: Optional[int]) -> None:
        """Classify a dead worker: signal kill (``signal``) vs ``crash``.

        A negative exitcode is a signal death (``-9`` = SIGKILL, what the
        kernel OOM killer sends); anything else -- ``os._exit``, a hard
        interpreter abort with a positive code -- is a ``crash``.
        """
        if exitcode is not None and exitcode < 0:
            self._note_failure(
                task,
                "signal",
                f"worker killed by signal {-exitcode}",
                exitcode=exitcode,
            )
        else:
            self._note_failure(
                task,
                "crash",
                f"worker died with exit code {exitcode}",
                exitcode=exitcode,
            )

    def _handle_message(self, worker, delayed, on_success, on_failure) -> int:
        """Receive one worker report; returns 1 when its task is terminal."""
        task = worker.task
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            # Died between becoming readable and the recv: classify the death.
            exitcode = worker.process.exitcode
            worker.respawn()
            self._note_worker_death(task, exitcode)
            return self._after_failure(task, delayed, on_failure)
        worker.task = None
        worker.deadline = None
        if message[0] == "ok":
            _, _, value, duration, pid, rss_kb = message
            on_success(task, value, duration, pid, rss_kb)
            return 1
        _, _, kind, detail = message
        self._note_failure(task, kind, detail)
        return self._after_failure(task, delayed, on_failure)
