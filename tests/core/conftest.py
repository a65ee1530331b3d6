"""Shared fixture: a small S4D cluster for middleware-level tests."""

import pytest

from repro.cluster import ClusterSpec, build_cluster
from repro.units import KiB, MiB


def small_spec(**overrides):
    defaults = dict(
        num_dservers=4,
        num_cservers=2,
        num_nodes=4,
        seed=11,
        rebuild_interval=0.05,
        rebuild_budget=8 * MiB,
    )
    defaults.update(overrides)
    return ClusterSpec(**defaults)


@pytest.fixture
def s4d_cluster():
    """An S4D cluster with a 4MB cache."""
    return build_cluster(small_spec(), s4d=True, cache_capacity=4 * MiB)


@pytest.fixture
def s4d_quiet_cluster():
    """Like ``s4d_cluster`` but no periodic rebuild cycle fires.

    The 60 s interval outlasts every scenario, so only an explicit
    ``rebuilder.drain()`` moves data between the tiers.
    """
    return build_cluster(small_spec(rebuild_interval=60.0), s4d=True,
                         cache_capacity=4 * MiB)


@pytest.fixture
def tiny_cache_cluster():
    """An S4D cluster whose cache fits only a few requests."""
    return build_cluster(small_spec(), s4d=True, cache_capacity=64 * KiB)
