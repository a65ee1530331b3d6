"""The parallel determinism gate: ``--jobs N`` is bit-identical.

The golden subset (fig6/fig9/table3 at the fixture scales) is run once
serially and once across a 4-wide work-stealing pool (``run_all`` with
``jobs > 1`` drains the shared unit queue); every fingerprint digest
must match bit for bit.  A third pass replays the whole subset out of
the content-addressed result store — cache hits must be the same bits
too.  This is the acceptance test for the sweep plane: parallelism and
memoisation may change wall time, never output.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from capture_golden import GOLDEN_POINTS  # noqa: E402

from repro.errors import WorkerCrashError  # noqa: E402
from repro.experiments import harness, report  # noqa: E402
import repro.experiments  # noqa: F401,E402  - registers all drivers
from repro.parallel import ResultStore, steal_fanout  # noqa: E402
from repro.parallel.experiments import run_unit  # noqa: E402


def _digests(jobs: int, store=None) -> dict[str, str]:
    """Golden-subset digests at the given pool width."""
    by_scale: dict[float, list[str]] = {}
    for exp_id, scale in GOLDEN_POINTS:
        by_scale.setdefault(scale, []).append(exp_id)
    digests: dict[str, str] = {}
    for scale in sorted(by_scale):
        results = report.run_all(
            scale=scale, only=by_scale[scale], jobs=jobs, store=store
        )
        for exp_id, result in results.items():
            digests[f"{exp_id}@{scale}"] = harness.fingerprint_digest(result)
    return digests


def test_jobs4_digests_bit_identical_to_serial():
    serial = _digests(jobs=1)
    parallel = _digests(jobs=4)
    assert set(serial) == {f"{e}@{s}" for e, s in GOLDEN_POINTS}
    assert parallel == serial


def test_warm_cache_digests_bit_identical_to_serial(tmp_path):
    """Every golden point served from the sweep cache carries the same
    fingerprint as a fresh serial computation."""
    serial = _digests(jobs=1)
    with ResultStore(tmp_path / "cache") as store:
        cold = _digests(jobs=1, store=store)
        assert store.hits == 0 and store.stores == len(GOLDEN_POINTS)
        warm = _digests(jobs=1, store=store)
        assert store.hits == len(GOLDEN_POINTS)
    assert cold == serial
    assert warm == serial


def test_worker_crash_names_the_config():
    """A config that dies in a spawned worker surfaces a clean error
    naming the failing unit; the pool shuts down without hanging."""
    tasks = [
        ("good", ("table3", 0.02)),
        ("bad-config", ("no_such_experiment", 0.02)),
    ]
    with pytest.raises(WorkerCrashError) as excinfo:
        steal_fanout(tasks, run_unit, jobs=2)
    assert excinfo.value.task_id == "bad-config"
    assert "no_such_experiment" in excinfo.value.worker_traceback


def test_parallel_run_all_keeps_wall_time_notes_and_order():
    results = report.run_all(
        scale=0.02, only=["table3", "fig9a"], jobs=2
    )
    # Same iteration order as the serial runner (sorted ids) and the
    # standard wall-time note on every result.
    assert list(results) == ["fig9a", "table3"]
    for result in results.values():
        assert any(note.startswith("wall time") for note in result.notes)
