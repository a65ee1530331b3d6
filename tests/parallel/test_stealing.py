"""The work-stealing drain: ordered merge, crash naming, drain stats."""

from __future__ import annotations

import pytest

from repro.errors import ParallelError, WorkerCrashError
from repro.parallel import StealStats, WorkerStats, steal_fanout

from .workers import (
    crash_on_three,
    die_hard_on_three,
    die_hard_on_three_beside_slow_zero,
    seeded_draws,
    square,
    uneven_sleep_square,
)

TASKS = [(f"t{i}", i) for i in range(6)]


def test_serial_drain_preserves_order():
    results, stats = steal_fanout(TASKS, square, jobs=1)
    assert results == [i * i for i in range(6)]
    assert stats.jobs == 1
    assert stats.workers[0].tasks == len(TASKS)
    assert stats.workers[0].task_ids == [t for t, _ in TASKS]


def test_parallel_drain_results_in_task_order():
    results, stats = steal_fanout(TASKS, square, jobs=2)
    assert results == [i * i for i in range(6)]
    assert stats.jobs == 2
    assert sum(w.tasks for w in stats.workers) == len(TASKS)
    drained = sorted(
        task_id for w in stats.workers for task_id in w.task_ids
    )
    assert drained == sorted(t for t, _ in TASKS)


def test_parallel_matches_serial_bit_for_bit():
    tasks = [(f"seed{s}", (s, 32)) for s in (7, 11, 13, 17)]
    serial, _ = steal_fanout(tasks, seeded_draws, jobs=1)
    parallel, _ = steal_fanout(tasks, seeded_draws, jobs=2)
    assert serial == parallel


def test_idle_worker_steals_the_queue_tail():
    """With one long unit and many short ones, the worker that is NOT
    stuck drains the remainder — the whole point of the shared queue."""
    tasks = [("slow", (9, 1.5))] + [
        (f"quick{i}", (i, 0.0)) for i in range(5)
    ]
    results, stats = steal_fanout(tasks, uneven_sleep_square, jobs=2)
    assert results == [81] + [i * i for i in range(5)]
    spread_min, spread_max = stats.task_spread
    assert spread_max >= 4  # somebody picked up the short tail
    assert spread_min >= 1


def test_soft_crash_names_the_unit():
    tasks = [(f"cfg-{i}", i) for i in range(5)]
    with pytest.raises(WorkerCrashError) as excinfo:
        steal_fanout(tasks, crash_on_three, jobs=2)
    assert excinfo.value.task_id == "cfg-3"
    assert "synthetic failure on payload 3" in excinfo.value.worker_traceback


def test_hard_death_names_the_inflight_unit():
    """A worker process that dies outright (os._exit, OOM-kill shape)
    is attributed to the unit it had announced — also while a healthy,
    slower neighbour is still running its own unit."""
    tasks = [(f"cfg-{i}", i) for i in range(5)]
    for worker in (die_hard_on_three, die_hard_on_three_beside_slow_zero):
        with pytest.raises(WorkerCrashError) as excinfo:
            steal_fanout(tasks, worker, jobs=2)
        assert excinfo.value.task_id == "cfg-3"
        assert "exit code" in excinfo.value.worker_traceback


def test_serial_crash_names_the_unit_and_reports_progress():
    lines: list[str] = []
    with pytest.raises(WorkerCrashError) as excinfo:
        steal_fanout(
            [("only", 3)], crash_on_three, jobs=1, progress=lines.append
        )
    assert excinfo.value.task_id == "only"
    assert any("only" in line and "FAILED" in line for line in lines)


def test_duplicate_unit_id_rejected():
    with pytest.raises(ParallelError, match="duplicate"):
        steal_fanout([("same", 1), ("same", 2)], square, jobs=1)


def test_stats_balance_and_spread():
    stats = StealStats(jobs=2, workers=[
        WorkerStats(worker_id=0, tasks=3, busy_seconds=3.0,
                    task_ids=["a", "b", "c"]),
        WorkerStats(worker_id=1, tasks=1, busy_seconds=1.0,
                    task_ids=["d"]),
    ])
    assert stats.balance == pytest.approx(1.5)
    assert stats.task_spread == (1, 3)
    assert stats.total_busy_seconds == pytest.approx(4.0)
    payload = stats.as_dict()
    assert payload["jobs"] == 2
    assert payload["workers"][0]["task_ids"] == ["a", "b", "c"]


def test_stats_balance_ignores_idle_workers():
    stats = StealStats(jobs=2, workers=[
        WorkerStats(worker_id=0, tasks=2, busy_seconds=2.0),
        WorkerStats(worker_id=1, tasks=0, busy_seconds=0.0),
    ])
    assert stats.balance == 1.0
