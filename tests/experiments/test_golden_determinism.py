"""The determinism gate: experiment results are bit-identical.

Every entry in ``golden_results.json`` pins the exact fingerprint a
(experiment, scale) point produced on a known-good tree.  Engine or
metadata-plane optimisations must keep these stable — same seeds, same
bits.  A legitimate behaviour change must regenerate the fixture via
``python tests/experiments/capture_golden.py`` and say why in the
commit.
"""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from capture_golden import FIXTURE, GOLDEN_POINTS  # noqa: E402

from repro.experiments import harness  # noqa: E402
import repro.experiments  # noqa: F401,E402  - registers all drivers


@pytest.fixture(scope="module")
def fixture_points() -> dict:
    data = json.loads(FIXTURE.read_text())
    return data["points"]


def test_fixture_covers_declared_points(fixture_points):
    assert set(fixture_points) == {
        f"{exp_id}@{scale}" for exp_id, scale in GOLDEN_POINTS
    }


@pytest.mark.parametrize(
    "exp_id, scale", GOLDEN_POINTS,
    ids=[f"{e}@{s}" for e, s in GOLDEN_POINTS],
)
def test_experiment_is_bit_identical(exp_id, scale, fixture_points,
                                     golden_views):
    golden = fixture_points[f"{exp_id}@{scale}"]
    result, _ = golden_views[f"{exp_id}@{scale}"]
    digest = harness.fingerprint_digest(result)
    if digest != golden["digest"]:
        fresh = harness.fingerprint(result)
        diff = [
            f"  {key}: golden={value!r} fresh={fresh.get(key)!r}"
            for key, value in golden["fingerprint"].items()
            if fresh.get(key) != value
        ]
        pytest.fail(
            f"{exp_id}@{scale} diverged from the golden fixture "
            f"(digest {digest[:16]} != {golden['digest'][:16]}).\n"
            "Changed fingerprint fields:\n" + "\n".join(diff[:20])
        )


def test_rerun_in_same_process_is_stable(golden_views):
    """Two back-to-back runs in one interpreter agree (no hidden
    global state leaking between campaign runs), and agree with the
    session's earlier measurement of the same campaign."""
    exp_id, scale = "fig9a", 0.1
    first = harness.fingerprint_digest(
        harness.get_experiment(exp_id).run(scale)
    )
    second = harness.fingerprint_digest(
        harness.get_experiment(exp_id).run(scale)
    )
    assert first == second
    viewed, _ = golden_views[f"{exp_id}@{scale}"]
    assert first == harness.fingerprint_digest(viewed)
