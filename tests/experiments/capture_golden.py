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

#: (exp_id, scale) pairs covered by the gate.  Scales are chosen so the
#: whole fixture reruns in well under a minute while still exercising
#: admission, eviction, flushing and lazy fetches.
GOLDEN_POINTS = [
    ("fig6a", 0.05),
    ("fig6b", 0.05),
    ("fig9a", 0.1),
    ("fig9b", 0.1),
    ("table3", 0.05),
]

FIXTURE = pathlib.Path(__file__).parent / "golden_results.json"


def capture() -> dict:
    fixture: dict = {"points": {}}
    for exp_id, scale in GOLDEN_POINTS:
        t0 = time.perf_counter()  # simlint: disable=DET001 - progress report
        result = harness.get_experiment(exp_id).run(scale)
        wall = time.perf_counter() - t0  # simlint: disable=DET001 - progress report
        fixture["points"][f"{exp_id}@{scale}"] = {
            "exp_id": exp_id,
            "scale": scale,
            "digest": harness.fingerprint_digest(result),
            "fingerprint": harness.fingerprint(result),
        }
        print(f"{exp_id}@{scale}: {wall:.1f}s "
              f"{fixture['points'][f'{exp_id}@{scale}']['digest'][:16]}")
    return fixture


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
