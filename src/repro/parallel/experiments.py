"""The experiment sweep on the store + work-stealing plane.

The sweep unit is **one experiment config** — ``(exp_id, scale)``.
Units flow through two layers:

1. the content-addressed :class:`~repro.parallel.store.ResultStore`
   (when enabled): a unit whose config digest is already cached at the
   current code fingerprint is answered without running anything;
2. the misses drain through :func:`~repro.parallel.stealing.
   steal_fanout`'s single shared queue — a worker that finishes a fast
   config immediately steals the next one, so one slow config no
   longer pins a whole static shard.

Results merge positionally into sorted-id order, so the sweep output
is bit-identical to a serial run whether units came from the cache,
one worker or eight (the golden-digest tests assert exactly that).
"""

from __future__ import annotations

import typing

from ..errors import ExperimentError
from .stealing import StealStats, Task, steal_fanout

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..experiments.harness import ExperimentResult
    from ..obs import MetricsRegistry
    from .store import ResultStore


def unit_digest(exp_id: str, scale: float | None) -> str:
    """The content address of one sweep unit.

    Uses the *effective* scale (``None`` resolves to the experiment's
    ``default_scale``, exactly as the driver itself resolves it), so
    ``run_all(scale=None)`` and ``run_all(scale=default)`` hit the same
    entry.  Unknown ids raise the same
    :class:`~repro.errors.ExperimentError` the serial path would.
    """
    from ..experiments.harness import get_experiment
    from .store import config_digest

    experiment = get_experiment(exp_id)
    effective = experiment.default_scale if scale is None else scale
    return config_digest(
        kind="experiment",
        exp_id=exp_id,
        scale=float(effective),
    )


def run_unit(payload: tuple) -> tuple:
    """Worker: run ONE experiment config.

    ``payload`` is ``(exp_id, scale)``.  Returns
    ``(ExperimentResult, wall_seconds)``.
    """
    import time

    # A spawn worker starts from a bare interpreter: importing the
    # package registers every driver.
    from ..experiments import harness
    import repro.experiments  # noqa: F401

    exp_id, scale = payload
    start = time.perf_counter()  # simlint: disable=DET001 - reporting only
    result = harness.get_experiment(exp_id).run_checked(scale)
    wall = time.perf_counter() - start  # simlint: disable=DET001 - reporting only
    return (result, wall)


def run_sweep(
    exp_ids: typing.Sequence[str],
    scale: float | None,
    jobs: int | None = 1,
    progress: typing.Callable[[str], None] | None = None,
    metrics: "MetricsRegistry | None" = None,
    store: "ResultStore | None" = None,
) -> tuple[dict[str, "ExperimentResult"], StealStats | None]:
    """Run ``exp_ids``; cached units answered, misses stolen greedily.

    Returns ``(results, stats)``.  ``results`` iterates in sorted
    exp-id order — the same order the serial runner produces — with
    the standard ``wall time`` note on every result (cache hits
    additionally carry a ``sweep cache hit`` note; notes are excluded
    from the golden fingerprints, so hits are bit-identical to fresh
    runs).  ``stats`` is the queue-drain telemetry, or ``None`` when
    every unit was a cache hit (nothing drained).
    """
    selected = sorted(set(exp_ids))
    if len(selected) != len(list(exp_ids)):
        duplicates = sorted(
            {e for e in exp_ids if list(exp_ids).count(e) > 1}
        )
        raise ExperimentError(f"duplicate experiment ids {duplicates}")

    results: dict[str, ExperimentResult] = {}
    digests: dict[str, str] = {}
    pending: list[str] = []
    for exp_id in selected:
        digest = unit_digest(exp_id, scale)
        digests[exp_id] = digest
        if store is not None:
            cached = store.get(digest)
            if cached is not None:
                result, wall = cached
                result.notes.append(f"wall time {wall:.1f}s")
                result.notes.append("sweep cache hit")
                results[exp_id] = result
                if progress is not None:
                    progress(f"{exp_id}: sweep cache hit")
                continue
        pending.append(exp_id)

    stats: StealStats | None = None
    if pending:
        tasks: list[Task] = [(exp_id, (exp_id, scale)) for exp_id in pending]
        values, stats = steal_fanout(
            tasks, run_unit, jobs=jobs, progress=progress, metrics=metrics
        )
        for exp_id, (result, wall) in zip(pending, values):
            if store is not None:
                # Stored *before* the sweep-level notes are appended,
                # so the cache holds the pristine driver output.
                store.put(digests[exp_id], (result, wall))
            result.notes.append(f"wall time {wall:.1f}s")
            results[exp_id] = result

    ordered = {exp_id: results[exp_id] for exp_id in selected}
    if sorted(ordered) != selected:
        missing = sorted(set(selected) - set(ordered))
        raise ExperimentError(f"workers returned no result for {missing}")
    return ordered, stats
