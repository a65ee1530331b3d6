"""The fan-out pool: ordered merge, crash surfacing, determinism."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.errors import ParallelError, WorkerCrashError
from repro.parallel import resolve_jobs, steal_fanout

from .workers import crash_on_three, seeded_draws, square

TASKS = [(f"t{i}", i) for i in range(6)]


def results_of(tasks, worker, **kwargs):
    """``steal_fanout``'s ordered results, without its drain stats."""
    results, _ = steal_fanout(tasks, worker, **kwargs)
    return results


def test_serial_path_preserves_order():
    assert results_of(TASKS, square, jobs=1) == [i * i for i in range(6)]


def test_parallel_results_in_task_order():
    assert results_of(TASKS, square, jobs=3) == [i * i for i in range(6)]


def test_parallel_matches_serial_bit_for_bit():
    tasks = [(f"seed{s}", (s, 32)) for s in (7, 11, 13, 17)]
    serial = results_of(tasks, seeded_draws, jobs=1)
    parallel = results_of(tasks, seeded_draws, jobs=4)
    assert serial == parallel


def test_worker_crash_names_the_task():
    tasks = [(f"cfg-{i}", i) for i in range(5)]
    with pytest.raises(WorkerCrashError) as excinfo:
        results_of(tasks, crash_on_three, jobs=2)
    assert excinfo.value.task_id == "cfg-3"
    assert "cfg-3" in str(excinfo.value)
    assert "synthetic failure on payload 3" in excinfo.value.worker_traceback


def test_serial_crash_names_the_task_too():
    with pytest.raises(WorkerCrashError) as excinfo:
        results_of([("only", 3)], crash_on_three, jobs=1)
    assert excinfo.value.task_id == "only"


def test_pool_survives_a_crash():
    """A crash tears the pool down cleanly; the next drain works."""
    with pytest.raises(WorkerCrashError):
        results_of([("a", 3), ("b", 4)], crash_on_three, jobs=2)
    assert not multiprocessing.active_children()
    assert results_of([("a", 1), ("b", 2)], crash_on_three, jobs=2) == [10, 20]


def test_duplicate_task_id_rejected():
    with pytest.raises(ParallelError, match="duplicate"):
        results_of([("same", 1), ("same", 2)], square, jobs=1)


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5
    assert resolve_jobs(0) >= 1
    with pytest.raises(ParallelError):
        resolve_jobs(-2)


def test_progress_and_metrics():
    lines: list[str] = []
    results = results_of(TASKS, square, jobs=2, progress=lines.append)
    assert results == [i * i for i in range(6)]
    assert len(lines) == len(TASKS)
    assert all("done" in line for line in lines)
