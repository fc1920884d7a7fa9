"""Resource governor: execution profiles and per-point memory budgets.

Two halves, both stdlib-only so every layer (engine, graph kernels, chaos
harness) can import them without cycles:

**Execution profiles** -- a :class:`ExecutionProfile` describes how much
fidelity a scenario point should spend: a memory scale for the streaming
BFS scratch budget and every memo bound (:mod:`repro.memo`), whether exact
kernels should switch to the sampled estimators, and a trial/source scale
for the estimators themselves.
:data:`PROFILE_LADDER` orders the profiles from full fidelity (rung 0) to
the cheapest honest mode (rung ``MAX_DEGRADATION_LEVEL``); the supervised
runner walks one rung down each time a point fails on *resource exhaustion*
(``oom`` / ``signal`` / ``timeout``) instead of retrying the identical
computation.  A profile is activated around a point's execution with
:func:`activate_profile`; budget-aware kernels read it back through
:func:`active_profile`.  Rung selection is a pure function of the failure
history, and every knob a profile turns is deterministic, so the same seed
plus the same faults reproduce the same rung sequence and bit-identical
degraded values.

**Memory budgets** -- :func:`apply_memory_budget` caps the calling process's
address space with a ``RLIMIT_AS`` *soft* limit of "what is currently
mapped, plus the per-point budget, plus a safety margin", so an overrun
raises a catchable :class:`MemoryError` inside the worker instead of
drawing the kernel OOM killer.  The budget comes from ``--memory-mb``.
See ``docs/robustness.md``.

**Helper threads** -- :func:`helper_threads` says how many threads a
caller may start beside itself for independent work that releases the
interpreter lock (the LP solves of :mod:`repro.flow.path_lp`): one, given
a second usable CPU, and none under an address-space cap.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional

#: Headroom added above the measured baseline address space when applying a
#: budget, so the worker itself (pickling results, formatting the failure)
#: never dies of its own bookkeeping.
MEMORY_SAFETY_MARGIN_BYTES = 32 * 1024 * 1024

#: Failure kinds that represent resource exhaustion: retrying the identical
#: computation is pointless, so the runner escalates the degradation ladder.
RESOURCE_FAULT_KINDS = ("oom", "signal", "timeout")

#: Deepest rung of the degradation ladder.
MAX_DEGRADATION_LEVEL = 3

#: Floor for planned source samples: degrading never pushes a sample that
#: had at least this many sources below it (estimates stay meaningful).
MIN_PLANNED_SOURCES = 16

#: Seed used when a degraded profile demotes an exact kernel to a sampled
#: estimate -- fixed, so the demotion is a pure function of the graph.
PROFILE_SAMPLE_SEED = 0

#: Most threads, the caller included, that :func:`helper_threads` lets work
#: at once.  Each holds one LP solve in memory; two is the configuration
#: whose time and peak memory were measured (``docs/perf.md``).
_MAX_WORKING_THREADS = 2


@dataclass(frozen=True)
class ExecutionProfile:
    """One rung of the degradation ladder (frozen, JSON-friendly).

    ``memory_scale`` multiplies the streaming-BFS scratch budget and the
    entry cap and cost budget of every memo; ``sampled`` switches exact
    path-length kernels to the sampled estimators (with their recorded
    confidence intervals); ``trial_scale`` shrinks trial/source counts
    requested from the estimators.  Rung 0 is full fidelity: every scale
    is 1.0 and ``sampled`` is off.
    """

    level: int = 0
    memory_scale: float = 1.0
    sampled: bool = False
    trial_scale: float = 1.0

    def as_dict(self) -> dict:
        return asdict(self)

    def scaled(self, bound: int) -> int:
        """A memory bound times ``memory_scale``, floored at 1."""
        if self.memory_scale >= 1.0:
            return int(bound)
        return max(1, int(bound * self.memory_scale))

    def plan_sources(self, num_nodes: int, requested: Optional[int]) -> Optional[int]:
        """The source-sample size this profile allows.

        ``requested`` of ``None`` (or >= ``num_nodes``) means "exact"; a
        ``sampled`` profile demotes that to a deterministic minority sample
        (a quarter of the nodes, at least 64, always below ``num_nodes``).
        ``trial_scale`` then shrinks any sampled request, floored at
        ``min(MIN_PLANNED_SOURCES, requested)`` so tiny samples survive.
        The result never exceeds the original request.
        """
        if self.sampled and (requested is None or requested >= num_nodes):
            demoted = min(num_nodes - 1, max(64, num_nodes // 4))
            if demoted >= 1:
                requested = demoted
        if requested is None:
            return None
        if self.trial_scale < 1.0:
            requested = max(
                min(MIN_PLANNED_SOURCES, requested),
                int(requested * self.trial_scale),
            )
        return requested

    def plan_trials(self, trials: int) -> int:
        """The trial count this profile allows (never below 1)."""
        if self.trial_scale >= 1.0:
            return trials
        return max(1, int(trials * self.trial_scale))


#: The ladder, full fidelity first.  Rung 1 halves the streaming-BFS scratch
#: budget and every memo bound; rung 2 additionally switches exact kernels to
#: the sampled estimators; rung 3 additionally halves trial/source counts.
PROFILE_LADDER = (
    ExecutionProfile(level=0),
    ExecutionProfile(level=1, memory_scale=0.5),
    ExecutionProfile(level=2, memory_scale=0.5, sampled=True),
    ExecutionProfile(level=3, memory_scale=0.5, sampled=True, trial_scale=0.5),
)

assert len(PROFILE_LADDER) == MAX_DEGRADATION_LEVEL + 1
assert all(profile.level == rung for rung, profile in enumerate(PROFILE_LADDER))


def profile_for_level(level: int) -> ExecutionProfile:
    """The ladder rung for ``level``, clamped to the ladder's range."""
    return PROFILE_LADDER[max(0, min(int(level), MAX_DEGRADATION_LEVEL))]


_ACTIVE_PROFILE: ExecutionProfile = PROFILE_LADDER[0]


def active_profile() -> ExecutionProfile:
    """The profile governing the current execution (rung 0 by default)."""
    return _ACTIVE_PROFILE


@contextmanager
def activate_profile(
    profile: Optional[ExecutionProfile],
) -> Iterator[ExecutionProfile]:
    """Install ``profile`` (``None`` = full fidelity) for the ``with`` body.

    The previous profile is restored on exit, so nested activations and
    serial in-process sweeps cannot leak a degraded profile into later
    points.
    """
    global _ACTIVE_PROFILE
    previous = _ACTIVE_PROFILE
    _ACTIVE_PROFILE = profile if profile is not None else PROFILE_LADDER[0]
    try:
        yield _ACTIVE_PROFILE
    finally:
        _ACTIVE_PROFILE = previous


# --------------------------------------------------------------------------- #
# Memory budgets (RLIMIT_AS soft caps)
# --------------------------------------------------------------------------- #
def current_address_space_bytes() -> Optional[int]:
    """This process's mapped address space (``None`` where unmeasurable).

    Reads ``/proc/self/statm`` (Linux); the budget machinery degrades to a
    no-op elsewhere rather than guessing a baseline and starving the
    interpreter.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[0])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


def memory_budget_bytes(memory_mb: float) -> Optional[int]:
    """Address-space cap enforcing a per-point budget of ``memory_mb``.

    ``RLIMIT_AS`` covers the whole address space -- interpreter, numpy and
    all -- so the cap is *current usage* plus the budget plus
    :data:`MEMORY_SAFETY_MARGIN_BYTES`, making ``memory_mb`` mean "what
    this point may allocate", not "total VSZ".  ``None`` when the baseline
    cannot be measured.
    """
    baseline = current_address_space_bytes()
    if baseline is None:
        return None
    return baseline + int(memory_mb * 1024 * 1024) + MEMORY_SAFETY_MARGIN_BYTES


def apply_memory_budget(memory_mb: float) -> Optional[Callable[[], None]]:
    """Cap this process's address space; returns a restore callable.

    Sets the ``RLIMIT_AS`` *soft* limit (the hard limit is untouched, so
    the cap can be raised back) and returns a function restoring the
    previous soft limit -- call it before sending results, so pickling a
    large value can never itself die of the point's budget.  Returns
    ``None`` when the platform cannot enforce the budget (no ``resource``
    module, unmeasurable baseline, or ``setrlimit`` refusal); callers
    treat that as "budget unenforced", never as an error.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix platforms
        return None
    budget = memory_budget_bytes(memory_mb)
    if budget is None:
        return None
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    except (OSError, ValueError):  # pragma: no cover - exotic kernels
        return None
    if hard != resource.RLIM_INFINITY:
        budget = min(budget, hard)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (budget, hard))
    except (OSError, ValueError):  # pragma: no cover - refused by kernel
        return None

    def restore() -> None:
        try:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        except (OSError, ValueError):  # pragma: no cover
            pass

    return restore


def helper_threads(tasks: int) -> int:
    """Threads to start beside the caller for ``tasks`` independent tasks.

    ``min(tasks, CPUs this process may run on, 2) - 1``: the caller works
    too, so one task or one CPU starts none, and more CPUs start no more
    than one (:data:`_MAX_WORKING_THREADS`).  None start under a finite
    ``RLIMIT_AS`` soft limit (a ``--memory-mb`` budget): glibc aborts the
    whole process, exit 127, when it cannot map a new thread's
    thread-local storage, where an allocation over the cap would raise a
    catchable ``MemoryError``.
    """
    if tasks < 2:
        return 0
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix platforms
        pass
    else:
        if resource.getrlimit(resource.RLIMIT_AS)[0] != resource.RLIM_INFINITY:
            return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity masks (macOS)
        cpus = os.cpu_count() or 1
    return min(tasks, cpus, _MAX_WORKING_THREADS) - 1
