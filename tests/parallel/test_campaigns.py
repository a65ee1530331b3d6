"""The sweep unit is one campaign: a figure pair is measured once."""

import pytest

from repro.experiments import harness, list_experiments
from repro.parallel import ResultStore, run_sweep, unit_digest
import repro.parallel.experiments as sweep

PAIRS = [
    "fig10a+fig10b", "fig6a+fig6b", "fig7a+fig7b", "fig8a+fig8b",
    "fig9a+fig9b",
]
#: What the views of one campaign may define for themselves.
PRESENTATION = {"exp_id", "title", "op", "PAPER_CLAIMS"}
SCALE = 0.02


class _Captured(Exception):
    pass


def _drained(stats) -> list[str]:
    return [task_id for w in stats.workers for task_id in w.task_ids]


def test_registry_forms_one_task_per_campaign(monkeypatch):
    """At default scales the 20 experiments form 15 campaigns: the
    five figure pairs and ten single experiments."""
    seen = []

    def capture(tasks, worker, **kwargs):
        seen.extend(tasks)
        raise _Captured

    monkeypatch.setattr(sweep, "steal_fanout", capture)
    with pytest.raises(_Captured):
        run_sweep(list_experiments(), None)
    ids = [task_id for task_id, _ in seen]
    assert len(ids) == 15
    assert sorted(i for i in ids if "+" in i) == PAIRS
    assert sorted(e for i in ids for e in i.split("+")) == list_experiments()
    for task_id, (exp_ids, scale) in seen:
        assert "+".join(exp_ids) == task_id
        for exp_id in exp_ids:
            assert harness.get_experiment(exp_id).default_scale == scale


def test_pair_views_differ_only_in_presentation():
    for pair in PAIRS:
        classes = [type(harness.get_experiment(e)) for e in pair.split("+")]
        assert classes[0].measure is classes[1].measure
        for cls in classes:
            own = {name for name in vars(cls) if not name.startswith("_")}
            assert own <= PRESENTATION, (cls.__name__, own - PRESENTATION)


@pytest.fixture(scope="module")
def fig9_checked() -> dict:
    """fig9a and fig9b at SCALE, each from its own ``run_checked``."""
    return {
        exp_id: harness.get_experiment(exp_id).run_checked(SCALE)
        for exp_id in ("fig9a", "fig9b")
    }


def _digests(results) -> dict[str, str]:
    return {e: harness.fingerprint_digest(r) for e, r in results.items()}


def test_figure_pair_drains_as_one_task(fig9_checked):
    # One task drains in this process whatever the width; the golden
    # gate (tests/experiments/test_parallel_golden.py) sends campaigns
    # to spawned workers.
    results, stats = run_sweep(["fig9a", "fig9b"], SCALE, jobs=2)
    assert _drained(stats) == ["fig9a+fig9b"]
    assert _digests(results) == _digests(fig9_checked)
    # Both views carry the one campaign's wall time.
    assert results["fig9a"].notes == results["fig9b"].notes


def test_cached_view_leaves_one_task_for_its_sibling(tmp_path, fig9_checked):
    with ResultStore(tmp_path) as store:
        store.put(unit_digest("fig9a", SCALE), (fig9_checked["fig9a"], 1.0))
        results, stats = run_sweep(["fig9a", "fig9b"], SCALE, store=store)
        assert store.hits == 1 and store.misses == 1
    assert _drained(stats) == ["fig9b"]
    assert "sweep cache hit" in results["fig9a"].notes
    assert _digests(results) == _digests(fig9_checked)
