"""Regenerate the golden determinism fixture (maintainer tool).

Run on a known-good tree to capture the bit-exact fingerprints the
engine-optimisation determinism gate compares against::

    PYTHONPATH=src python tests/experiments/capture_golden.py

The fixture must only ever be regenerated when an *intentional*
behaviour change lands; performance work is required to keep these
hashes stable (same seeds -> same bits).
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.experiments import harness
import repro.experiments  # noqa: F401  - registers all drivers
from repro.experiments.harness import GOLDEN_POINTS
from repro.parallel.experiments import campaign_tasks

FIXTURE = pathlib.Path(__file__).parent / "golden_results.json"


def measure_points() -> dict[tuple[str, float], harness.ExperimentResult]:
    """``{(exp_id, scale): result}`` for every golden point, as ``run``
    renders it (no shape check), measuring each campaign once."""
    results: dict = {}
    for task_id, (exp_ids, scale) in campaign_tasks(GOLDEN_POINTS):
        t0 = time.perf_counter()  # simlint: disable=DET001 - progress report
        data = harness.get_experiment(exp_ids[0]).measure(scale)
        wall = time.perf_counter() - t0  # simlint: disable=DET001 - progress report
        print(f"{task_id}@{scale}: {wall:.1f}s")
        for exp_id in exp_ids:
            view = harness.get_experiment(exp_id).view(data, scale)
            results[(exp_id, scale)] = view
    return results


def capture() -> dict:
    fixture: dict = {"points": {}}
    for (exp_id, scale), result in measure_points().items():
        digest = harness.fingerprint_digest(result)
        fixture["points"][f"{exp_id}@{scale}"] = {
            "exp_id": exp_id,
            "scale": scale,
            "digest": digest,
            "fingerprint": harness.fingerprint(result),
        }
        print(f"{exp_id}@{scale}: {digest[:16]}")
    return fixture


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
