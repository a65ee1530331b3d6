"""Deterministic parallel fan-out for experiment/bench/compare sweeps.

Public surface:

- :func:`steal_fanout` / :class:`StealStats` / :func:`resolve_jobs` —
  the one fan-out engine: a single shared queue of tasks drained
  greedily by spawn workers, merged positionally
  (``repro.parallel.stealing``);
- :class:`ResultStore` / :func:`config_digest` /
  :func:`code_fingerprint` — the content-addressed sweep result cache
  keyed by (canonical config digest, comment-blind code fingerprint)
  (``repro.parallel.store``);
- :func:`run_sweep` — the experiment sweep on top of both layers
  (``repro.parallel.experiments``);
- :class:`~repro.errors.WorkerCrashError` — re-exported for callers
  that want to catch crashes without importing :mod:`repro.errors`.
"""

from ..errors import ParallelError, WorkerCrashError
from .experiments import run_sweep, unit_digest
from .stealing import (
    StealStats,
    Task,
    Worker,
    WorkerStats,
    os_cpu_count,
    resolve_jobs,
    steal_fanout,
)
from .store import ResultStore, code_fingerprint, config_digest

__all__ = [
    "ParallelError",
    "ResultStore",
    "StealStats",
    "Task",
    "Worker",
    "WorkerCrashError",
    "WorkerStats",
    "code_fingerprint",
    "config_digest",
    "os_cpu_count",
    "resolve_jobs",
    "run_sweep",
    "steal_fanout",
    "unit_digest",
]
