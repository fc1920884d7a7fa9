"""The throughput harness's batch entry against the serial trial loop.

:func:`repro.flow.throughput.mean_normalized_throughput` draws every
trial's permutation first, routes the union of their switch pairs once and
solves the trials' LPs on the calling thread and its helper threads.  It
must return exactly what a loop of :func:`normalized_throughput` calls
returns, draw the same numbers from the rng, surface a helper's error,
start no LP after an error and start no thread under a memory budget.
"""

import os
import random
import resource
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.flow import path_lp
from repro.flow.mcf import FlowSolverError
from repro.flow.path_lp import (
    IPM_MIN_NNZ,
    PathLPStructure,
    max_concurrent_flow_path_lp,
    path_lp_thetas,
)
from repro.flow.throughput import mean_normalized_throughput, normalized_throughput
from repro.memo import clear_memos
from repro.resources import helper_threads
from repro.topologies.jellyfish import JellyfishTopology
from repro.traffic.matrices import random_permutation_traffic
from repro.utils.stats import mean

SRC = Path(__file__).resolve().parents[1] / "src"


def serial_mean(topology, trials, rng):
    """The trial loop that fig03, fig04, fig06 and fig14 ran before the batch."""
    return mean(
        normalized_throughput(topology, k=8, rng=rng).normalized for _ in range(trials)
    )


def larger_jellyfish():
    """RRG(30, 8, 4) with 4 servers per switch: LPs past ``IPM_MIN_NNZ``."""
    return JellyfishTopology.build(30, 8, 4, rng=5)


@pytest.mark.parametrize("trials", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batch_equals_serial_loop(small_jellyfish, trials, seed):
    clear_memos()  # the batch routes every trial's pairs from a cold table
    batch_rng, serial_rng = random.Random(seed), random.Random(seed)
    batch = mean_normalized_throughput(small_jellyfish, trials, rng=batch_rng)
    serial = serial_mean(small_jellyfish, trials, serial_rng)
    assert batch == serial
    assert batch < 1.0
    assert batch_rng.getstate() == serial_rng.getstate()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_thetas_equal_one_solve_per_matrix_at_other_k(small_jellyfish, seed):
    # Routing the union of the matrices' pairs at k=2 gives each LP the
    # paths that routing its own pairs alone gives it.
    rng = random.Random(seed)
    matrices = [random_permutation_traffic(small_jellyfish, rng=rng) for _ in range(3)]
    clear_memos()
    thetas = path_lp_thetas(small_jellyfish, matrices, k=2)
    clear_memos()
    assert thetas == [
        max_concurrent_flow_path_lp(small_jellyfish, traffic, k=2) for traffic in matrices
    ]


@pytest.mark.parametrize("seed", [0, 1])
def test_batch_equals_serial_loop_on_interior_point_lps(seed, monkeypatch):
    topology = larger_jellyfish()
    sizes = []
    assemble = PathLPStructure.assemble

    def recording_assemble(self, arrays, path_set):
        assembled = assemble(self, arrays, path_set)
        sizes.append(assembled[0].nnz + assembled[2].nnz)
        return assembled

    monkeypatch.setattr(PathLPStructure, "assemble", recording_assemble)
    clear_memos()
    batch_rng, serial_rng = random.Random(seed), random.Random(seed)
    batch = mean_normalized_throughput(topology, 3, rng=batch_rng)
    assert batch == serial_mean(topology, 3, serial_rng)
    assert batch_rng.getstate() == serial_rng.getstate()
    assert min(sizes) >= IPM_MIN_NNZ


def test_seed_is_drawn_once(small_jellyfish):
    # An int seed seeds one generator for every trial, as the loop's rng did.
    assert mean_normalized_throughput(small_jellyfish, 3, rng=7) == serial_mean(
        small_jellyfish, 3, random.Random(7)
    )


def test_helpers_match_the_serial_loop_and_leave_no_thread(
    small_jellyfish, monkeypatch
):
    # One helper per further trial, whatever the CPU count.
    monkeypatch.setattr(path_lp, "helper_threads", lambda tasks: tasks - 1)
    before = threading.active_count()
    batch = mean_normalized_throughput(small_jellyfish, 6, rng=random.Random(4))
    assert threading.active_count() == before
    assert batch == serial_mean(small_jellyfish, 6, random.Random(4))


def test_helper_error_reaches_the_caller_and_stops_the_batch(
    small_jellyfish, monkeypatch
):
    # One helper for four LPs.  The helper's first solve fails once the
    # caller holds an LP; the caller finishes that LP only once the helper
    # has stopped, so every LP it could start after that would come from a
    # queue the failure should have emptied.
    monkeypatch.setattr(path_lp, "helper_threads", lambda tasks: 1)
    caller_started = threading.Event()
    helper_stopped = threading.Event()
    in_current_span = path_lp.in_current_span

    def signalling_stop(fn):
        wrapped = in_current_span(fn)

        def run():
            try:
                return wrapped()
            finally:
                helper_stopped.set()

        return run

    monkeypatch.setattr(path_lp, "in_current_span", signalling_stop)
    started = []
    solve = PathLPStructure.solve

    def failing_on_the_helper(self, arrays, path_set):
        started.append(threading.current_thread().name)
        if threading.current_thread() is threading.main_thread():
            caller_started.set()
            assert helper_stopped.wait(timeout=60)
            return solve(self, arrays, path_set)
        assert caller_started.wait(timeout=60)
        raise FlowSolverError("solve failed on a helper thread")

    monkeypatch.setattr(PathLPStructure, "solve", failing_on_the_helper)
    before = threading.active_count()
    with pytest.raises(FlowSolverError, match="on a helper thread"):
        mean_normalized_throughput(small_jellyfish, 4, rng=0)
    assert threading.active_count() == before
    assert len(started) == 2, started  # the serial loop would not start a third


def test_interrupt_on_the_caller_stops_the_helper(small_jellyfish, monkeypatch):
    # The caller is interrupted (Ctrl-C) while the helper solves its first
    # of four LPs; the helper finishes that LP only once the caller waits
    # to shut the pool down, so any LP after it would come from a queue
    # the interrupt should have emptied.
    monkeypatch.setattr(path_lp, "helper_threads", lambda tasks: 1)
    helper_started = threading.Event()
    shutting_down = threading.Event()
    shutdown = path_lp.ThreadPoolExecutor.shutdown

    def signalling_shutdown(pool, *args, **kwargs):
        shutting_down.set()
        return shutdown(pool, *args, **kwargs)

    monkeypatch.setattr(path_lp.ThreadPoolExecutor, "shutdown", signalling_shutdown)
    started = []
    solve = PathLPStructure.solve

    def interrupted_on_the_caller(self, arrays, path_set):
        started.append(threading.current_thread().name)
        if threading.current_thread() is threading.main_thread():
            assert helper_started.wait(timeout=60)
            raise KeyboardInterrupt
        helper_started.set()
        assert shutting_down.wait(timeout=60)
        return solve(self, arrays, path_set)

    monkeypatch.setattr(PathLPStructure, "solve", interrupted_on_the_caller)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        mean_normalized_throughput(small_jellyfish, 4, rng=0)
    assert threading.active_count() == before
    assert len(started) == 2, started


def test_helper_count_is_capped_at_one(monkeypatch):
    # Two solving threads is the measured configuration; more CPUs start
    # no more helpers, and one CPU or one task starts none.
    unlimited = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
    monkeypatch.setattr(resource, "getrlimit", lambda which: unlimited)
    for cpus, tasks, expected in [(8, 20, 1), (2, 20, 1), (1, 20, 0), (8, 1, 0), (8, 2, 1)]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        assert helper_threads(tasks) == expected, (cpus, tasks)


def test_memory_budget_starts_no_thread():
    # Under an address-space cap glibc may abort the whole process (exit
    # 127) when a new thread cannot get thread-local storage, so the batch
    # solves on the calling thread alone.
    expected = serial_mean(larger_jellyfish(), 2, random.Random(3))
    script = textwrap.dedent(
        """
        import random, threading
        from repro.flow.throughput import mean_normalized_throughput
        from repro.resources import apply_memory_budget, helper_threads
        from repro.topologies.jellyfish import JellyfishTopology

        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        threading.Thread.start = counting_start
        topology = JellyfishTopology.build(30, 8, 4, rng=5)
        assert apply_memory_budget(8) is not None
        assert helper_threads(2) == 0
        value = mean_normalized_throughput(topology, 2, rng=random.Random(3))
        assert started == [], started
        print(repr(value))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_TRACE", None)
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert float(completed.stdout.strip()) == expected
