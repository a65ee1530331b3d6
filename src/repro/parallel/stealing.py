"""Deterministic fan-out: one shared task queue, greedy spawn workers.

Every ``--jobs N`` path (the experiment sweep, ``repro compare`` and
``repro bench``) runs independent tasks through :func:`steal_fanout`.
The tasks go into a single shared queue that spawn workers drain
greedily — a worker that finishes early simply steals the next task,
so the makespan tracks the slowest *task*, not the slowest static
shard.  Results merge **in task order**, so output is bit-identical to
a serial run no matter how the OS schedules workers:

- workers are *shared-nothing*: they use the ``spawn`` start method,
  so every worker is a fresh interpreter — no inherited memoisation
  caches, stamp counters or RNG state can leak from the parent or
  between sibling workers;
- every task builds its own seeded simulation (``sim.rng`` named
  streams derived from the config's seed), so results depend only on
  the task payload, never on which worker ran it or when;
- the merge is positional: which worker ran a task, and in what order
  tasks completed, can change wall time and :class:`StealStats` only,
  never results (simlint DET005 guards the "never results" half;
  ``tests/experiments/test_parallel_golden.py`` pins the bits).

Crash attribution follows one rule: a worker announces each task with
a ``start`` message before running it, so a task that raises — or a
worker process that dies outright while it holds a task — surfaces as
:class:`~repro.errors.WorkerCrashError` naming that task, after the
pool is torn down.  Workers are daemonic (the final teardown backstop),
so a worker may not itself start ``multiprocessing`` children.

Progress is observable through an optional ``progress`` callback,
fired as each task finishes or fails, and through the returned
:class:`StealStats`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
import traceback
import typing

from ..errors import ParallelError, WorkerCrashError

#: Payload -> result function executed in the worker.  Must be an
#: importable module-level callable (the spawn start method pickles it
#: by qualified name).
Worker = typing.Callable[[typing.Any], typing.Any]

#: (task_id, payload) pairs; ``task_id`` names the configuration in
#: progress output and crash reports.
Task = typing.Tuple[str, typing.Any]

#: Parent-side poll interval while waiting on the result queue; only
#: bounds how quickly a hard worker death is noticed.
_POLL_SECONDS = 0.25


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: None/1 serial, 0 = all cores."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ParallelError(f"jobs must be >= 0: {jobs}")
    if jobs == 0:
        # Worker-pool sizing only: the value never reaches a result
        # (the merge is positional), which is exactly the contract
        # DET005 enforces everywhere else.
        return os_cpu_count()
    return jobs


def os_cpu_count() -> int:
    """Core count for pool sizing (wall-time only, never results)."""
    return os.cpu_count() or 1  # simlint: disable=DET005 - pool sizing only


def _report_failure(
    task_id: str, progress: typing.Callable[[str], None] | None
) -> None:
    """The progress line naming a failed task."""
    if progress is not None:
        progress(f"task {task_id} FAILED")


@dataclasses.dataclass
class WorkerStats:
    """What one worker did: units drained and busy wall time."""

    worker_id: int
    tasks: int = 0
    busy_seconds: float = 0.0
    task_ids: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class StealStats:
    """Queue-drain telemetry for one :func:`steal_fanout` call."""

    jobs: int
    workers: list[WorkerStats]

    @property
    def total_busy_seconds(self) -> float:
        return sum(w.busy_seconds for w in self.workers)

    @property
    def balance(self) -> float:
        """Busiest worker's share of the mean busy time (1.0 = even).

        The straggler figure of merit: a static shard that pins one
        worker under a slow config family drives this far above 1;
        greedy draining keeps it near 1 even for heterogeneous units.
        """
        busy = [w.busy_seconds for w in self.workers if w.tasks]
        if not busy:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 1.0

    @property
    def task_spread(self) -> tuple[int, int]:
        """(min, max) units drained per participating worker."""
        counts = [w.tasks for w in self.workers]
        return (min(counts), max(counts)) if counts else (0, 0)

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "balance": round(self.balance, 4),
            "task_spread": list(self.task_spread),
            "workers": [
                {
                    "worker_id": w.worker_id,
                    "tasks": w.tasks,
                    "busy_seconds": round(w.busy_seconds, 4),
                    "task_ids": list(w.task_ids),
                }
                for w in self.workers
            ],
        }


def _steal_worker_main(
    worker: Worker,
    worker_id: int,
    task_queue,
    result_queue,
) -> None:
    """Worker loop: drain the shared queue until the sentinel.

    Every unit is announced with a ``start`` message before it runs, so
    the parent can attribute a hard death (the process dying without a
    ``done``) to the unit that killed it.
    """
    import time

    while True:
        item = task_queue.get()
        if item is None:
            result_queue.put(("exit", worker_id, None, None, None, None, 0.0))
            return
        index, task_id, payload = item
        result_queue.put(("start", worker_id, index, task_id, None, None, 0.0))
        start = time.perf_counter()  # simlint: disable=DET001 - reporting only
        try:
            status, value = "ok", worker(payload)
        except Exception:
            status, value = "error", traceback.format_exc()
        wall = time.perf_counter() - start  # simlint: disable=DET001 - reporting only
        result_queue.put(
            ("done", worker_id, index, task_id, status, value, wall)
        )


def _serial_drain(
    tasks: list[Task],
    worker: Worker,
    progress: typing.Callable[[str], None] | None,
) -> tuple[list, StealStats]:
    """The ``jobs <= 1`` path: same loop, one pseudo-worker's stats."""
    import time

    stats = WorkerStats(worker_id=0)
    results = []
    for k, (task_id, payload) in enumerate(tasks):
        start = time.perf_counter()  # simlint: disable=DET001 - reporting only
        try:
            value = worker(payload)
        except Exception:
            _report_failure(task_id, progress)
            raise WorkerCrashError(task_id, traceback.format_exc()) from None
        wall = time.perf_counter() - start  # simlint: disable=DET001 - reporting only
        stats.tasks += 1
        stats.busy_seconds += wall
        stats.task_ids.append(task_id)
        if progress is not None:
            progress(f"[{k + 1}/{len(tasks)}] {task_id} done")
        results.append(value)
    return results, StealStats(jobs=1, workers=[stats])


def steal_fanout(
    tasks: typing.Sequence[Task],
    worker: Worker,
    jobs: int | None = 1,
    progress: typing.Callable[[str], None] | None = None,
) -> tuple[list, StealStats]:
    """Drain ``tasks`` through a work-stealing pool; ordered results.

    Returns ``(results, stats)`` with ``results`` lined up
    index-for-index with ``tasks`` — bit-identical to a serial run —
    and ``stats`` describing how the queue drained.  A failing unit
    raises :class:`WorkerCrashError` naming it.
    """
    tasks = list(tasks)
    seen: set[str] = set()
    for task_id, _ in tasks:
        if task_id in seen:
            raise ParallelError(f"duplicate task id {task_id!r}")
        seen.add(task_id)
    jobs = resolve_jobs(jobs)

    if jobs <= 1 or len(tasks) <= 1:
        return _serial_drain(tasks, worker, progress)

    jobs = min(jobs, len(tasks))
    context = multiprocessing.get_context("spawn")
    # SimpleQueue, not Queue: its put() writes the pipe synchronously
    # (no feeder thread), so a worker's ``start`` announcement is
    # durably in flight before the payload runs — a hard death
    # (os._exit, OOM-kill) can never lose the message that lets the
    # parent attribute it.
    task_queue = context.SimpleQueue()
    result_queue = context.SimpleQueue()

    workers = [
        context.Process(
            target=_steal_worker_main,
            args=(worker, worker_id, task_queue, result_queue),
            daemon=True,
        )
        for worker_id in range(jobs)
    ]
    stats = [WorkerStats(worker_id=w) for w in range(jobs)]
    inflight: dict[int, tuple[int, str]] = {}
    results_by_index: dict[int, typing.Any] = {}
    failure: WorkerCrashError | None = None
    try:
        for process in workers:
            process.start()
        for index, (task_id, payload) in enumerate(tasks):
            task_queue.put((index, task_id, payload))
        for _ in range(jobs):
            task_queue.put(None)
        exited = 0
        dead_polls = 0
        while len(results_by_index) < len(tasks):
            if result_queue.empty():
                time.sleep(_POLL_SECONDS)
                if not result_queue.empty():
                    continue  # drain before judging liveness: a dead
                    # worker's messages are already in the pipe
                    # (synchronous put), so read them first.
                failure = _check_liveness(workers, inflight)
                if failure is not None:
                    raise failure
                if all(p.exitcode is not None for p in workers):
                    # Nothing inflight to blame, but nobody is alive
                    # to send more: one extra poll to drain the pipe,
                    # then give up instead of spinning forever.
                    dead_polls += 1
                    if dead_polls >= 2 and result_queue.empty():
                        raise ParallelError(
                            "all workers died with "
                            f"{len(tasks) - len(results_by_index)} "
                            "tasks pending"
                        )
                continue
            message = result_queue.get()
            kind, worker_id, index, task_id, status, value, wall = message
            if kind == "start":
                inflight[worker_id] = (index, task_id)
                continue
            if kind == "exit":
                exited += 1
                if exited >= jobs and len(results_by_index) < len(tasks):
                    raise ParallelError(
                        "all workers exited with "
                        f"{len(tasks) - len(results_by_index)} tasks pending"
                    )
                continue
            inflight.pop(worker_id, None)
            if status == "error":
                _report_failure(task_id, progress)
                failure = WorkerCrashError(task_id, value)
                raise failure
            stats[worker_id].tasks += 1
            stats[worker_id].busy_seconds += wall
            stats[worker_id].task_ids.append(task_id)
            results_by_index[index] = value
            if progress is not None:
                progress(
                    f"[{len(results_by_index)}/{len(tasks)}] {task_id} done"
                )
    finally:
        # Crash or completion: tear the pool down (workers are
        # daemonic as a final backstop; SimpleQueue has no feeder
        # threads to wait on).
        for process in workers:
            if process.is_alive() and failure is not None:
                process.terminate()
        for process in workers:
            process.join(timeout=5.0)
        task_queue.close()
        result_queue.close()

    return (
        [results_by_index[i] for i in range(len(tasks))],
        StealStats(jobs=jobs, workers=stats),
    )


def _check_liveness(
    workers: list, inflight: dict[int, tuple[int, str]]
) -> WorkerCrashError | None:
    """A dead worker holding a unit is a crash attributed to that unit."""
    for worker_id, process in enumerate(workers):
        if process.exitcode is not None and worker_id in inflight:
            _, task_id = inflight[worker_id]
            return WorkerCrashError(
                task_id,
                f"worker {worker_id} died with exit code {process.exitcode}",
            )
    return None
