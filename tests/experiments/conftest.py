"""Shared fixtures: every golden campaign measured once per session."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from capture_golden import measure_points  # noqa: E402

from repro.experiments import harness  # noqa: E402


@pytest.fixture(scope="session")
def golden_views() -> dict:
    """``{"exp_id@scale": (viewed, checked)}`` for every golden point.

    Each campaign is measured once, as ``capture_golden.py`` measures
    it; ``viewed`` is the result as ``run`` renders it (no shape
    check), ``checked`` as ``run_checked`` and the sweep render it.
    """
    return {
        f"{exp_id}@{scale}": (
            viewed, harness.get_experiment(exp_id).checked(viewed)
        )
        for (exp_id, scale), viewed in measure_points().items()
    }
