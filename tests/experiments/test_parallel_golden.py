"""The parallel determinism gate: ``--jobs N`` is bit-identical.

Every golden point (one per experiment, at the fixture scales) is
measured once serially (the session's ``golden_views`` fixture,
shape-checked) and once as one sweep into a fresh result store, its
fifteen campaigns drained across a 4-wide work-stealing pool, each in
a spawned worker; every fingerprint digest must match bit for bit.  A
further pass replays every point out of that store — cache hits must
be the same bits too.  This is the acceptance test for the sweep
plane: parallelism and memoisation may change wall time, never output.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from capture_golden import GOLDEN_POINTS  # noqa: E402

from repro.errors import WorkerCrashError  # noqa: E402
from repro.experiments import harness, report  # noqa: E402
import repro.experiments  # noqa: F401,E402  - registers all drivers
from repro.parallel import ResultStore, run_sweep, steal_fanout  # noqa: E402
from repro.parallel.experiments import run_unit  # noqa: E402


def _serial(golden_views) -> dict[str, str]:
    return {
        point: harness.fingerprint_digest(checked)
        for point, (_, checked) in golden_views.items()
    }


@pytest.fixture(scope="module")
def cold_pass(tmp_path_factory) -> dict:
    """One cold sweep of the golden points at ``--jobs 4`` into a fresh
    result store; the warm test replays the same store.

    A sweep runs at one scale and the golden points sit at two, so
    each golden experiment's ``default_scale`` is pinned to its golden
    scale for this pass and the sweep runs at ``scale=None``.  The
    campaigns then share one drain, and each crosses a spawn boundary
    (a lone task would drain in this process).
    """
    with ResultStore(tmp_path_factory.mktemp("cache")) as store:
        with pytest.MonkeyPatch.context() as patch:
            for exp_id, scale in GOLDEN_POINTS:
                cls = type(harness.get_experiment(exp_id))
                patch.setattr(cls, "default_scale", scale)
            results, stats = run_sweep(
                [exp_id for exp_id, _ in GOLDEN_POINTS], None,
                jobs=4, store=store,
            )
        yield {
            "digests": {
                f"{exp_id}@{scale}": harness.fingerprint_digest(
                    results[exp_id]
                )
                for exp_id, scale in GOLDEN_POINTS
            },
            "stats": stats, "store": store,
            "hits": store.hits, "stores": store.stores,
        }


def test_jobs4_digests_bit_identical_to_serial(golden_views, cold_pass):
    serial = _serial(golden_views)
    assert set(serial) == {f"{e}@{s}" for e, s in GOLDEN_POINTS}
    # Nothing came from the cache: spawned workers computed every
    # point, one campaign each.
    assert cold_pass["hits"] == 0
    stats = cold_pass["stats"]
    assert stats.jobs == 4
    assert sorted(t for w in stats.workers for t in w.task_ids) == [
        "ablation_costmodel", "ablation_policy", "ablation_rebuilder",
        "ext_carl", "ext_memcache", "fig1", "fig10a+fig10b", "fig11",
        "fig6a+fig6b", "fig7a+fig7b", "fig8a+fig8b", "fig9a+fig9b",
        "metadata", "table3", "table4",
    ]
    assert cold_pass["digests"] == serial


def test_warm_cache_digests_bit_identical_to_serial(golden_views, cold_pass):
    """Every golden point served from the sweep cache carries the same
    fingerprint as a fresh serial computation."""
    serial = _serial(golden_views)
    store = cold_pass["store"]
    assert cold_pass["stores"] == len(GOLDEN_POINTS)
    by_scale: dict[float, list[str]] = {}
    for exp_id, scale in GOLDEN_POINTS:
        by_scale.setdefault(scale, []).append(exp_id)
    hits = store.hits
    warm = {}
    for scale, exp_ids in by_scale.items():
        results = report.run_all(scale=scale, only=exp_ids, store=store)
        for exp_id, result in results.items():
            warm[f"{exp_id}@{scale}"] = harness.fingerprint_digest(result)
    assert store.hits - hits == len(GOLDEN_POINTS)
    assert cold_pass["digests"] == serial
    assert warm == serial


def test_worker_crash_names_the_config():
    """A config that dies in a spawned worker surfaces a clean error
    naming the failing unit; the pool shuts down without hanging."""
    tasks = [
        ("good", (("table3",), 0.02)),
        ("bad-config", (("no_such_experiment",), 0.02)),
    ]
    with pytest.raises(WorkerCrashError) as excinfo:
        steal_fanout(tasks, run_unit, jobs=2)
    assert excinfo.value.task_id == "bad-config"
    assert "no_such_experiment" in excinfo.value.worker_traceback


def test_parallel_run_all_keeps_wall_time_notes_and_order():
    results = report.run_all(
        scale=0.02, only=["table3", "fig9a"], jobs=2
    )
    # Sorted-id order whatever the width, and the
    # standard wall-time note on every result.
    assert list(results) == ["fig9a", "table3"]
    for result in results.values():
        assert any(note.startswith("wall time") for note in result.notes)
