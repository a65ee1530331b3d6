"""Opt-in thousand-rank capacity sweep (nightly CI).

Deselected by default (see the ``capacity`` marker in
``pyproject.toml``); the nightly job runs ``pytest -m capacity``.
Asserts the full receipt pipeline: every sweep point completes, the
1024-rank floor is reached, and per-rank peak memory and per-request
wall time stay flat.
"""

import json

import pytest

from repro.bench.capacity_receipt import (
    FLATNESS_LIMIT,
    RANKS,
    TIME_FLATNESS_LIMIT,
    write_receipt,
)

pytestmark = pytest.mark.capacity


def test_capacity_receipt_end_to_end(tmp_path):
    path = tmp_path / "BENCH_capacity.json"
    rc = write_receipt(str(path))
    receipt = json.loads(path.read_text())

    assert rc == 0, receipt["claims"]
    points = receipt["points"]
    assert [p["ranks"] for p in points] == list(RANKS)
    assert points[-1]["ranks"] >= 1024
    for point in points:
        assert point["wall_s"] > 0
        assert point["ru_maxrss_kib"] > 0
        assert point["write_mb_s"] > 0

    flat = receipt["claims"]["memory_flat"]
    assert flat["met"], flat
    assert flat["per_rank_growth_x"] <= FLATNESS_LIMIT

    speed = receipt["claims"]["time_flat"]
    assert speed["met"], speed
    assert speed["per_request_growth_x"] <= TIME_FLATNESS_LIMIT
