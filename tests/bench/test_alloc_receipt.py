"""BENCH_alloc.json: one row per counted bench, and the --alloc-check gate."""

import json
import pathlib

import pytest

from repro.bench.receipts import COUNTED, check_allocs

RECEIPT = (pathlib.Path(__file__).resolve().parents[2]
           / "benchmarks" / "perf" / "BENCH_alloc.json")


def test_committed_receipt_has_one_row_per_counted_bench():
    receipt = json.loads(RECEIPT.read_text())
    assert receipt["receipt"] == "alloc"
    benches = receipt["measurements"]["benches"]
    assert set(benches) == set(COUNTED)
    for row in benches.values():
        assert row["allocs_per_event"] == pytest.approx(
            row["fresh_per_event"] + row["tuples_per_event"], abs=2e-6
        )
    claim = receipt["claims"]["alloc_event_loop"]
    assert claim["met"] and claim["gated"]


def _receipt(benches: dict) -> dict:
    return {"measurements": {"benches": benches}}


def test_check_allocs_flags_growth_past_tolerance():
    baseline = _receipt({"timeout_storm": {"allocs_per_event": 1.0}})
    within = {"timeout_storm": {"allocs_per_event": 1.2}}
    assert check_allocs(within, baseline, tolerance=0.25) == []
    grown = {"timeout_storm": {"allocs_per_event": 1.3}}
    regressions = check_allocs(grown, baseline, tolerance=0.25)
    assert len(regressions) == 1
    assert regressions[0].startswith("timeout_storm: 1.3000 allocs/event")


def test_check_allocs_skips_benches_absent_from_baseline():
    baseline = _receipt({"event_loop": {"allocs_per_event": 0.0}})
    measured = {"timeout_storm": {"allocs_per_event": 5.0},
                "event_loop": {"allocs_per_event": 0.004}}
    # 0.004 stays under the 0.005 absolute floor on a zero baseline.
    assert check_allocs(measured, baseline) == []
