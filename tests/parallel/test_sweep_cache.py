"""Sweep memoisation end to end: hits are bit-identical, invalidation
is semantic, and the ``repro sweep-cache`` CLI maintains the store."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import harness, report
from repro.parallel import ResultStore, run_sweep, unit_digest

SUBSET = ["fig9a", "table3"]
SCALE = 0.02


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "cache") as s:
        yield s


def test_warm_run_is_bit_identical_and_runs_nothing(store):
    cold, cold_stats = run_sweep(SUBSET, SCALE, jobs=1, store=store)
    assert cold_stats is not None
    assert store.stores == len(SUBSET) and store.hits == 0

    warm, warm_stats = run_sweep(SUBSET, SCALE, jobs=1, store=store)
    assert warm_stats is None  # nothing drained
    assert store.hits == len(SUBSET)
    assert list(warm) == list(cold) == sorted(SUBSET)
    for exp_id in SUBSET:
        assert (harness.fingerprint_digest(warm[exp_id])
                == harness.fingerprint_digest(cold[exp_id]))
        assert "sweep cache hit" in warm[exp_id].notes
        assert "sweep cache hit" not in cold[exp_id].notes


def test_hits_do_not_accumulate_notes(store):
    run_sweep(SUBSET, SCALE, jobs=1, store=store)
    for _ in range(2):
        warm, _ = run_sweep(SUBSET, SCALE, jobs=1, store=store)
    notes = warm["table3"].notes
    assert notes.count("sweep cache hit") == 1
    assert sum(1 for n in notes if n.startswith("wall time")) == 1


def test_default_scale_and_explicit_default_share_an_entry():
    exp = harness.get_experiment("table3")
    assert unit_digest("table3", None) == unit_digest(
        "table3", exp.default_scale
    )
    assert unit_digest("table3", 0.31) != unit_digest("table3", None)


def test_unknown_experiment_raises_before_any_run(store):
    with pytest.raises(ExperimentError):
        run_sweep(["no_such_experiment"], SCALE, store=store)


def test_code_revision_isolates_entries(tmp_path):
    """A different code fingerprint never sees the old entries —
    semantic edits invalidate, comment edits (same fingerprint) hit."""
    with ResultStore(tmp_path, code_fp="rev-a") as store_a:
        digest = unit_digest("table3", SCALE)
        store_a.put(digest, ("payload", 0.1))
    with ResultStore(tmp_path, code_fp="rev-a") as same_rev:
        assert same_rev.get(digest) == ("payload", 0.1)
    with ResultStore(tmp_path, code_fp="rev-b") as other_rev:
        assert other_rev.get(digest) is None


def test_run_all_routes_store_through_sweep(store):
    cold = report.run_all(scale=SCALE, only=SUBSET, store=store)
    warm = report.run_all(scale=SCALE, only=SUBSET, store=store)
    assert store.hits == len(SUBSET)
    for exp_id in SUBSET:
        assert (harness.fingerprint_digest(warm[exp_id])
                == harness.fingerprint_digest(cold[exp_id]))


# -- the maintenance CLI ---------------------------------------------------

def _seed_cache(tmp_path) -> str:
    cache_dir = str(tmp_path / "cache")
    with ResultStore(cache_dir) as store:
        store.put(unit_digest("table3", SCALE), ("v", 0.1))
    with ResultStore(cache_dir, code_fp="stale-rev") as store:
        store.put(unit_digest("fig9a", SCALE), ("v", 0.2))
    return cache_dir


def test_cli_stats(tmp_path, capsys):
    from repro.__main__ import main

    cache_dir = _seed_cache(tmp_path)
    assert main(["sweep-cache", "stats", "--cache-dir", cache_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == 2
    assert payload["current_revision_entries"] == 1
    assert payload["stale_revision_entries"] == 1
    assert payload["recovered_truncated_tail"] is False


def test_cli_gc_drops_stale_revisions(tmp_path, capsys):
    from repro.__main__ import main

    cache_dir = _seed_cache(tmp_path)
    assert main(["sweep-cache", "gc", "--cache-dir", cache_dir]) == 0
    assert "removed 1 stale entries" in capsys.readouterr().out
    with ResultStore(cache_dir) as store:
        assert store.get(unit_digest("table3", SCALE)) == ("v", 0.1)
        assert store.stats()["entries"] == 1


def test_cli_clear(tmp_path, capsys):
    from repro.__main__ import main

    cache_dir = _seed_cache(tmp_path)
    assert main(["sweep-cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "cleared" in capsys.readouterr().out
    with ResultStore(cache_dir) as store:
        assert store.stats()["entries"] == 0


def test_cli_stats_on_missing_cache(tmp_path, capsys):
    from repro.__main__ import main

    missing = str(tmp_path / "nowhere")
    assert main(["sweep-cache", "stats", "--cache-dir", missing]) == 0
    assert "no sweep cache" in capsys.readouterr().out
    assert main(["sweep-cache", "gc", "--cache-dir", missing]) == 1


def test_experiments_cli_warm_run_reports_hits(tmp_path, capsys):
    from repro.experiments.__main__ import main

    cache_dir = str(tmp_path / "cache")
    out = str(tmp_path / "EXPERIMENTS.md")
    argv = [
        "--only", "table3", "--scale", str(SCALE), "--out", out,
        "--cache-dir", cache_dir,
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "sweep cache: 0 hits, 1 misses, 1 stored" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "sweep cache: 1 hits, 0 misses, 0 stored" in warm
    assert "table3: sweep cache hit" in warm


def test_experiments_cli_no_result_cache_opts_out(tmp_path, capsys):
    from repro.experiments.__main__ import main

    out = str(tmp_path / "EXPERIMENTS.md")
    assert main([
        "--only", "table3", "--scale", str(SCALE), "--out", out,
        "--cache-dir", str(tmp_path / "cache"), "--no-result-cache",
    ]) == 0
    assert "sweep cache:" not in capsys.readouterr().out
    assert not (tmp_path / "cache").exists()
