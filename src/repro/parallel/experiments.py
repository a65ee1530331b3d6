"""The experiment sweep on the store + work-stealing plane.

The sweep unit is **one campaign**: the experiments that inherit one
``measure`` at one effective scale (Fig. 6a and Fig. 6b are the write
and read views of the same runs).  Experiments flow through two
layers:

1. the content-addressed :class:`~repro.parallel.store.ResultStore`
   (when enabled): an experiment whose config digest is already cached
   at the current code fingerprint is answered without running
   anything;
2. the misses are grouped by campaign, and each campaign is one task
   on :func:`~repro.parallel.stealing.steal_fanout`'s single shared
   queue — it runs once however many of its views were asked for, and
   a worker that finishes a fast campaign immediately steals the next
   one, so one slow campaign no longer pins a whole static shard.

Results merge positionally into sorted-id order, so the sweep output
is bit-identical to a serial run whether results came from the cache,
one worker or eight (the golden-digest tests assert exactly that).
"""

from __future__ import annotations

import typing

from ..errors import ExperimentError
from .stealing import StealStats, Task, steal_fanout

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..experiments.harness import ExperimentResult
    from .store import ResultStore


def unit_digest(exp_id: str, scale: float | None) -> str:
    """The content address of one experiment's result.

    Uses the *effective* scale (``None`` resolves to the experiment's
    ``default_scale``, exactly as the driver itself resolves it), so
    ``run_all(scale=None)`` and ``run_all(scale=default)`` hit the same
    entry.  Unknown ids raise :class:`~repro.errors.ExperimentError`.
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


def campaign_tasks(points: typing.Iterable[tuple[str, float]]) -> list[Task]:
    """Group ``(exp_id, effective scale)`` points into sweep tasks.

    One task per campaign: the points whose experiments inherit one
    ``measure`` at one scale, in first-seen order.  A task is named by
    its ids joined with ``+`` (``fig6a+fig6b``); its payload is the
    ``(exp_ids, scale)`` that :func:`run_unit` takes.
    """
    from ..experiments.harness import get_experiment

    campaigns: dict[tuple, list[str]] = {}
    for exp_id, scale in points:
        key = (type(get_experiment(exp_id)).measure, scale)
        campaigns.setdefault(key, []).append(exp_id)
    return [
        ("+".join(ids), (tuple(ids), scale))
        for (_, scale), ids in campaigns.items()
    ]


def run_unit(payload: tuple) -> list:
    """Worker: run ONE campaign and render each of its views.

    ``payload`` is ``(exp_ids, scale)``: experiments that inherit one
    ``measure``, and their effective scale.  Returns
    ``[(ExperimentResult, wall_seconds)]`` in ``exp_ids`` order; every
    view carries the wall time of the whole campaign.
    """
    import time

    # A spawn worker starts from a bare interpreter: importing the
    # package registers every driver.
    from ..experiments import harness
    import repro.experiments  # noqa: F401

    exp_ids, scale = payload
    experiments = [harness.get_experiment(exp_id) for exp_id in exp_ids]
    start = time.perf_counter()  # simlint: disable=DET001 - reporting only
    data = experiments[0].measure(scale)
    results = [e.checked(e.view(data, scale)) for e in experiments]
    wall = time.perf_counter() - start  # simlint: disable=DET001 - reporting only
    return [(result, wall) for result in results]


def run_sweep(
    exp_ids: typing.Sequence[str],
    scale: float | None,
    jobs: int | None = 1,
    progress: typing.Callable[[str], None] | None = None,
    store: "ResultStore | None" = None,
) -> tuple[dict[str, "ExperimentResult"], StealStats | None]:
    """Run ``exp_ids``; cached results answered, one task per campaign.

    Returns ``(results, stats)``.  ``results`` iterates in sorted
    exp-id order with the standard ``wall time`` note on every result
    (cache hits additionally carry a ``sweep cache hit`` note; notes
    are excluded from the golden fingerprints, so hits are
    bit-identical to fresh runs).  The store keeps one entry per
    experiment, so a hit is answered per view.  The misses drain as
    one task per campaign, named by its ids joined with ``+``
    (``fig6a+fig6b``).  ``stats`` is the queue-drain telemetry, or
    ``None`` when every experiment was a cache hit (nothing drained).
    At ``jobs`` 1 the drain runs in this process.
    """
    from ..experiments.harness import get_experiment

    selected = sorted(set(exp_ids))
    if len(selected) != len(list(exp_ids)):
        duplicates = sorted(
            {e for e in exp_ids if list(exp_ids).count(e) > 1}
        )
        raise ExperimentError(f"duplicate experiment ids {duplicates}")

    results: dict[str, ExperimentResult] = {}
    digests: dict[str, str] = {}
    pending: list[tuple[str, float]] = []
    for exp_id in selected:
        experiment = get_experiment(exp_id)
        effective = experiment.default_scale if scale is None else scale
        digest = unit_digest(exp_id, effective)
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
        pending.append((exp_id, effective))

    stats: StealStats | None = None
    if pending:
        tasks = campaign_tasks(pending)
        values, stats = steal_fanout(
            tasks, run_unit, jobs=jobs, progress=progress
        )
        for (_, (ids, _)), views in zip(tasks, values):
            for exp_id, (result, wall) in zip(ids, views):
                if store is not None:
                    # Stored *before* the sweep-level notes are
                    # appended, so the cache holds the pristine output.
                    store.put(digests[exp_id], (result, wall))
                result.notes.append(f"wall time {wall:.1f}s")
                results[exp_id] = result

    ordered = {exp_id: results[exp_id] for exp_id in selected}
    if sorted(ordered) != selected:
        missing = sorted(set(selected) - set(ordered))
        raise ExperimentError(f"workers returned no result for {missing}")
    return ordered, stats
