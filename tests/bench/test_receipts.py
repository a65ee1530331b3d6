"""The receipt plane's contract, with every measurement stubbed.

Each registered receipt goes through the one writer: the document
carries the shared header, every claim has boolean ``met`` and
``gated`` fields, and the CLI exits 1 exactly when a gated claim is
unmet.
"""

import json

import pytest

from repro.bench import cli, receipts
from repro.pfs.client import HEADER_BYTES

HEADER = {"schema", "receipt", "rev", "python", "machine", "cpus"}

#: The claims each receipt gates on; every other claim is recorded only.
GATED = {
    "alloc": {"alloc_event_loop"},
    "capacity": {"scale_1024_ranks", "memory_flat", "time_flat"},
    "coalescing": {"header_accounting_exact"},
    "streaming": {"results_identical"},
    "sweep": {"digests_match_serial", "digests_identical",
              "all_warm_hits", "warm_speedup_ge_5x"},
}


def _run_case(on_wall=1.0, on_clock="0x1.0000000000000p+1"):
    def run_case(telemetry_on, scale):
        return {
            "telemetry": telemetry_on,
            "wall_s": on_wall if telemetry_on else 1.0,
            "events_scheduled": 10,
            "events_per_s": 10.0,
            "series_rows": 1 if telemetry_on else 0,
            "sim_seconds_hex": (on_clock if telemetry_on
                                else "0x1.0000000000000p+1"),
            "write_bandwidth_hex": "0x1.0000000000000p+20",
            "read_bandwidth_hex": "0x1.0000000000000p+20",
        }

    return run_case


def _golden_pass():
    """Serial, cold and warm passes over five points, in call order;
    the cold pass misses the store at every point, the warm one hits."""
    passes = []

    def golden_pass(jobs, store):
        passes.append(jobs)
        if len(passes) == 2:
            store.misses += 5
        elif len(passes) == 3:
            store.hits += 5
        digests = {f"p{i}@0.05": "d" for i in range(5)}
        return (2.0, 1.0, 0.01)[len(passes) - 1], digests, []

    return golden_pass


@pytest.fixture
def stubbed(monkeypatch):
    """Replace every receipt's measurement with a cheap stub whose
    readings meet every claim."""
    stubs = {
        "_count_pass": lambda name, scale: {
            "units": 100, "fresh_by_class": {"Event": 1},
            "fresh_per_event": 0.01, "timed_entry_tuples": 0,
            "tuples_per_event": 0.0, "allocs_per_event": 0.01,
        },
        "_memory_pass": lambda name, scale: {
            "net_blocks": 0, "net_blocks_per_event": 0.0,
            "tracemalloc_peak_bytes": 1,
        },
        "_timing_pass": lambda name, scale, repeats: {
            "wall_s": 0.001, "throughput": 1e5,
        },
        "_run_point": lambda ranks, rpr: {
            "ranks": ranks, "requests": ranks * rpr * 2,
            "wall_s": ranks * 1e-3, "ru_maxrss_kib": ranks * 40,
            "net_blocks": ranks * 300, "write_mb_s": 1.0,
            "read_mb_s": 1.0, "rss_kib_per_rank": 40.0,
            "blocks_per_rank": 300.0, "us_per_request": 100.0,
        },
        "_stock_campaign": lambda: {
            "stripe_fragments": 64, "pfs_subrequests": 8,
            "network_transfers": 16, "events_scheduled": 100,
            "bytes_moved": 4096,
            "network_bytes": 4096 + 16 * HEADER_BYTES,
        },
        "_run_case": _run_case(),
        "_golden_pass": _golden_pass(),
    }
    for name, stub in stubs.items():
        assert hasattr(receipts, name), name
        monkeypatch.setattr(receipts, name, stub)
    return monkeypatch


def _run(name, tmp_path, *flags):
    path = tmp_path / f"{name}.json"
    rc = cli.main(["--receipt", name, "--json", str(path), *flags])
    return rc, json.loads(path.read_text())


def test_every_receipt_declares_its_gated_claims():
    assert set(receipts.RECEIPTS) == set(GATED)


@pytest.mark.parametrize("name", sorted(GATED))
def test_receipt_document_contract(name, stubbed, tmp_path):
    rc, doc = _run(name, tmp_path)
    assert rc == 0, doc["claims"]
    assert set(doc) == HEADER | {"config", "measurements", "claims"}
    assert doc["schema"] == receipts.SCHEMA
    assert doc["receipt"] == name
    assert doc["claims"]
    for claim in doc["claims"].values():
        assert isinstance(claim["met"], bool)
        assert isinstance(claim["gated"], bool)
        assert claim["met"]
    gated = {c for c, row in doc["claims"].items() if row["gated"]}
    assert gated == GATED[name]


def test_unmet_gated_claim_exits_one(stubbed, tmp_path):
    # Telemetry that moves the sim clock breaks results_identical.
    stubbed.setattr(receipts, "_run_case",
                    _run_case(on_clock="0x1.0000000000001p+1"))
    rc, doc = _run("streaming", tmp_path)
    assert rc == 1
    assert not doc["claims"]["results_identical"]["met"]


def test_unmet_ungated_claim_exits_zero(stubbed, tmp_path):
    # 50% overhead misses the recorded-only target.
    stubbed.setattr(receipts, "_run_case", _run_case(on_wall=1.5))
    rc, doc = _run("streaming", tmp_path)
    assert rc == 0
    within = doc["claims"]["within_target"]
    assert not within["met"] and not within["gated"]
    assert doc["claims"]["results_identical"]["met"]
