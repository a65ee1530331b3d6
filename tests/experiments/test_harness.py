"""Tests for the experiment harness (registry, results, rendering)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    REGISTRY,
    Experiment,
    ExperimentResult,
    Series,
    get_experiment,
    list_experiments,
)
from repro.experiments.report import render_markdown


def test_all_paper_artefacts_registered():
    expected = {
        "fig1", "fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b",
        "fig9a", "fig9b", "fig10a", "fig10b", "fig11",
        "table3", "table4", "metadata",
        "ablation_policy", "ablation_rebuilder", "ablation_costmodel",
    }
    assert expected <= set(list_experiments())


def test_get_experiment_unknown():
    with pytest.raises(ExperimentError):
        get_experiment("fig99")


def test_every_experiment_has_id_and_title():
    for exp_id, experiment in REGISTRY.items():
        assert experiment.exp_id == exp_id
        assert experiment.title
        assert experiment.default_scale > 0


def test_series_length_mismatch_rejected():
    with pytest.raises(ExperimentError):
        Series("x", [1, 2], [1.0])


def make_result(stock=(10.0, 20.0), s4d=(15.0, 20.0)):
    return ExperimentResult(
        exp_id="demo",
        title="demo experiment",
        x_label="x",
        y_label="MB/s",
        series=[
            Series("stock", [1, 2], list(stock)),
            Series("s4d", [1, 2], list(s4d)),
        ],
        paper_claims=["something"],
    )


def test_improvements():
    result = make_result()
    assert result.improvements("stock", "s4d") == [pytest.approx(50.0), 0.0]


def test_get_series_by_label():
    result = make_result()
    assert result.get("s4d").y == [15.0, 20.0]
    with pytest.raises(ExperimentError):
        result.get("nope")


def test_to_text_renders_table():
    text = make_result().to_text()
    assert "demo experiment" in text
    assert "stock" in text and "s4d" in text
    assert "15.00" in text


def test_ok_tracks_failures():
    result = make_result()
    assert result.ok
    result.failures.append("boom")
    assert not result.ok
    assert "SHAPE MISMATCH: boom" in result.to_text()


def test_checked_leaves_the_viewed_result_alone():
    """A single experiment's view is its measured data: checking it
    must not write shape failures into what the caller still holds."""

    class Failing(Experiment):
        def measure(self, scale):
            return make_result()

        def check_shape(self, result):
            return ["shape off"]

    experiment = Failing()
    viewed = experiment.view(experiment.measure(1.0), 1.0)
    checked = experiment.checked(viewed)
    assert checked.failures == ["shape off"]
    assert viewed.failures == []
    assert experiment.run_checked().failures == ["shape off"]


def test_render_markdown_summarises():
    results = {"demo": make_result()}
    doc = render_markdown(results, scale_note="test")
    assert "# EXPERIMENTS" in doc
    assert "1/1 experiments pass" in doc
    assert "demo experiment" in doc
    assert "Shape checks: **pass**" in doc


def test_render_markdown_reports_failures():
    result = make_result()
    result.failures.append("it broke")
    doc = render_markdown({"demo": result})
    assert "Shape checks: **FAIL**" in doc
    assert "it broke" in doc
