"""Tests for run_all / report plumbing with a stub experiment."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import REGISTRY, Experiment, ExperimentResult, Series
from repro.experiments.harness import register
from repro.experiments.report import run_all


@pytest.fixture
def stub_experiment():
    class Stub(Experiment):
        exp_id = "stub_exp"
        title = "stub"
        default_scale = 1.0
        ran_with = None

        def measure(self, scale):
            type(self).ran_with = scale
            return ExperimentResult(
                exp_id=self.exp_id, title=self.title,
                x_label="x", y_label="y",
                series=[Series("s", [1], [2.0])],
            )

        def check_shape(self, result):
            return ["stub always fails"] if result.get("s").y[0] < 0 else []

    register(Stub)
    yield Stub
    del REGISTRY["stub_exp"]


def test_run_all_only_filters(stub_experiment):
    results = run_all(only=["stub_exp"])
    assert list(results) == ["stub_exp"]
    assert results["stub_exp"].ok
    # Wall-time note was appended.
    assert any("wall time" in note for note in results["stub_exp"].notes)


def test_run_all_passes_scale(stub_experiment):
    run_all(scale=0.125, only=["stub_exp"])
    assert stub_experiment.ran_with == 0.125


def test_run_all_progress_callback(stub_experiment):
    seen = []
    run_all(only=["stub_exp"], progress=seen.append)
    assert seen == ["[1/1] stub_exp done"]


def test_run_all_rejects_unknown_ids(stub_experiment):
    """An unknown id fails the whole sweep before anything runs."""
    with pytest.raises(ExperimentError, match="fig6c"):
        run_all(only=["stub_exp", "fig6c"])
    assert stub_experiment.ran_with is None


def test_run_all_drops_duplicate_ids(stub_experiment):
    results = run_all(only=["stub_exp", "stub_exp"])
    assert list(results) == ["stub_exp"]


def test_duplicate_registration_rejected(stub_experiment):
    with pytest.raises(ExperimentError):
        register(stub_experiment)


def test_register_requires_exp_id():
    class Nameless(Experiment):
        exp_id = ""
        title = "nameless"

        def measure(self, scale):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(ExperimentError):
        register(Nameless)
