"""Property-based tests of the cost model's structure."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CostModel, CostParams
from repro.devices import HDD, SSD, DeviceProfiler, HDDSpec, SSDSpec
from repro.pfs import (
    involved_servers,
    involved_servers_paper,
    max_subrequest_paper,
)
from repro.units import KiB, MiB


@pytest.fixture(scope="module")
def model():
    profiler = DeviceProfiler(rng=random.Random(42))
    hdd = profiler.profile(HDD(HDDSpec()))
    ssd = profiler.profile(SSD(SSDSpec()))
    params = CostParams(
        num_dservers=8, num_cservers=4,
        d_stripe=64 * KiB, c_stripe=64 * KiB,
        avg_rotation=hdd.avg_rotation, max_seek=hdd.max_seek,
        beta_d_read=1 / (47 * MiB), beta_d_write=1 / (47 * MiB),
        beta_c_read=1 / (45 * MiB), beta_c_write=1 / (38 * MiB),
        hdd_profile=hdd,
    )
    return CostModel(params)


sizes = st.integers(min_value=1, max_value=64 * MiB)
offsets = st.integers(min_value=0, max_value=1 << 34)
distances = st.integers(min_value=0, max_value=1 << 40)
ops = st.sampled_from(["read", "write"])


@given(op=ops, offset=offsets, size=sizes, distance=distances)
@settings(max_examples=300, deadline=None)
def test_costs_are_positive_and_finite(model, op, offset, size, distance):
    t_d = model.cost_dservers(op, offset, size, distance)
    t_c = model.cost_cservers(op, size)
    assert t_d > 0
    assert t_c > 0
    assert t_d < 100 and t_c < 100  # sane magnitudes (seconds)
    assert model.benefit(op, offset, size, distance) == pytest.approx(
        t_d - t_c
    )


@given(op=ops, offset=offsets, size=sizes,
       d1=distances, d2=distances)
@settings(max_examples=300, deadline=None)
def test_cost_monotone_in_distance(model, op, offset, size, d1, d2):
    lo, hi = sorted((d1, d2))
    assert model.cost_dservers(op, offset, size, lo) <= (
        model.cost_dservers(op, offset, size, hi) + 1e-12
    )


@given(op=ops, size1=sizes, size2=sizes, distance=distances)
@settings(max_examples=300, deadline=None)
def test_cserver_cost_monotone_in_size(model, op, size1, size2, distance):
    lo, hi = sorted((size1, size2))
    assert model.cost_cservers(op, lo) <= model.cost_cservers(op, hi) + 1e-12


@given(op=ops, offset=offsets, size=sizes, distance=distances)
@settings(max_examples=200, deadline=None)
def test_startup_bounded_by_b(model, op, offset, size, distance):
    m = model.involved_servers(offset, size)
    t_s = model.startup_time(distance, m)
    b = model.params.max_seek + model.params.avg_rotation
    assert 0 <= t_s <= b + 1e-12


@given(offset=offsets, size=st.integers(1, 4 * MiB), distance=distances)
@settings(max_examples=200, deadline=None)
def test_refinements_never_increase_cost(model, offset, size, distance):
    """Exact-m and seek-gated rotation only remove phantom cost."""
    verbatim = CostModel(
        model.params, exact_servers=False, seek_gated_rotation=False
    )
    refined_cost = model.cost_dservers("write", offset, size, distance)
    verbatim_cost = verbatim.cost_dservers("write", offset, size, distance)
    assert refined_cost <= verbatim_cost + 1e-12


# -- the request path against the equations, bit for bit ------------------

STRIPE = 64 * KiB


def _seek_reference(profile, distance):
    """F(d) of the fitted seek curve, straight from its fields."""
    if distance == 0:
        return 0.0
    cyl = min(max(1, distance // profile.bytes_per_cylinder),
              profile.total_cylinders)
    if cyl < profile.knee:
        return profile.min_seek + profile.sqrt_coeff * math.sqrt(cyl)
    lin_base = (profile.min_seek + profile.sqrt_coeff * math.sqrt(profile.knee)
                - profile.lin_coeff * profile.knee)
    return lin_base + profile.lin_coeff * cyl


def _reference_costs(model, op, offset, size, distance):
    """``(T_D, T_C)`` composed from the layout functions and the
    parameters, with nothing hoisted or memoised (Eq. 1-7)."""
    p = model.params
    count = involved_servers if model.exact_servers else involved_servers_paper
    m = max(1, count(offset, size, p.d_stripe, p.num_dservers))
    rotation = p.avg_rotation
    if model.seek_gated_rotation and distance == 0:
        rotation = 0.0
    a = _seek_reference(p.hdd_profile.seek_profile, distance) + rotation
    b = p.max_seek + p.avg_rotation
    if a > b:
        a = b
    t_s = a + (m / (m + 1)) * (b - a)
    s_m = max_subrequest_paper(offset, size, p.d_stripe, p.num_dservers)
    s_n = max_subrequest_paper(0, size, p.c_stripe, p.num_cservers)
    return t_s + s_m * p.beta_d(op), s_n * p.beta_c(op)


@pytest.fixture(scope="module")
def variants(model):
    """The four (exact_servers, seek_gated_rotation) combinations."""
    return {
        flags: CostModel(model.params, exact_servers=flags[0],
                         seek_gated_rotation=flags[1])
        for flags in itertools.product((True, False), repeat=2)
    }


def _distances(profile):
    knee = profile.knee * profile.bytes_per_cylinder
    span = profile.total_cylinders * profile.bytes_per_cylinder
    return st.one_of(
        st.just(0),
        st.integers(1, knee - 1),  # sqrt piece
        st.integers(knee, 2 * span),  # linear piece, then saturated
        st.just(1 << 40),  # a stream's first request
    )


@given(data=st.data(),
       flags=st.sampled_from(list(itertools.product((True, False), repeat=2))),
       op=ops,
       offset=st.one_of(
           st.integers(0, 1 << 16).map(lambda k: k * STRIPE),  # on a boundary
           st.integers(0, 1 << 34),
       ),
       size=st.one_of(
           st.integers(1, 4 * MiB),
           st.sampled_from([1, STRIPE, 8 * STRIPE, 4 * MiB]),
       ))
@settings(max_examples=400, deadline=None)
def test_benefit_is_the_equations_bit_for_bit(variants, data, flags, op,
                                              offset, size):
    model = variants[flags]
    distance = data.draw(_distances(model.params.hdd_profile.seek_profile))
    t_d, t_c = _reference_costs(model, op, offset, size, distance)
    assert model.cost_dservers(op, offset, size, distance).hex() == t_d.hex()
    # Twice: the second T_C comes from the (op, size) memo.
    for _ in range(2):
        assert model.cost_cservers(op, size).hex() == t_c.hex()
        benefit = model.benefit(op, offset, size, distance)
        assert benefit.hex() == (t_d - t_c).hex()
        assert benefit.hex() == (
            model.cost_dservers(op, offset, size, distance)
            - model.cost_cservers(op, size)
        ).hex()
