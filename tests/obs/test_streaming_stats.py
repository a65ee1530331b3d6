"""Streaming stats: the sketch vs exact, series windows vs an oracle.

The telemetry plane's histogram claims bounded error and O(1) memory,
and every series claims that its rows partition the observations by
sample; both claims are checked here against exact references
(``statistics``) on seeded and drawn streams.
"""

import math
import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.streaming import LogHistogram, StreamHub
from repro.obs.streaming.hub import (
    _BUFFER_CAP,
    CounterSeries,
    LatencySeries,
    TallySeries,
)
from repro.obs.streaming.stats import _VECTOR_CUTOFF
from repro.sim import Simulator


class Clock:
    __slots__ = ("now",)

    def __init__(self, now=0.0):
        self.now = now


def exact_quantile(data, q):
    """Fractional-rank quantile matching the sketches' convention."""
    data = sorted(data)
    rank = q * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] + (data[hi] - data[lo]) * frac


# -- LogHistogram ---------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("dist", ["expo", "lognorm", "uniform"])
def test_log_histogram_relative_error_bound(seed, dist):
    rng = random.Random(seed)
    draw = {
        "expo": lambda: rng.expovariate(1000.0),
        "lognorm": lambda: rng.lognormvariate(-7.0, 1.5),
        "uniform": lambda: rng.uniform(1e-5, 1e-2),
    }[dist]
    data = [draw() for _ in range(20_000)]
    hist = LogHistogram()
    for x in data:
        hist.observe(x)
    bound = 1.0 / LogHistogram.SUBBUCKETS
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = exact_quantile(data, q)
        estimate = hist.quantile(q)
        assert abs(estimate - exact) <= bound * exact + 1e-12, (
            q, estimate, exact
        )


def test_log_histogram_vs_statistics_quantiles():
    rng = random.Random(3)
    data = [rng.expovariate(200.0) for _ in range(9_999)]
    hist = LogHistogram()
    hist.observe_many(data)
    # statistics.quantiles(n=100, method="inclusive") uses the same
    # fractional-rank convention as LogHistogram.quantile.
    cuts = statistics.quantiles(data, n=100, method="inclusive")
    for pct in (50, 90, 99):
        exact = cuts[pct - 1]
        estimate = hist.quantile(pct / 100.0)
        assert abs(estimate - exact) <= exact / LogHistogram.SUBBUCKETS + 1e-12


def test_log_histogram_bulk_equals_scalar_exactly():
    rng = random.Random(11)
    values = [rng.expovariate(500.0) for _ in range(4_000)]
    values += [0.0, -1.0, 1e-300, 5e6]  # underflow + clamp edges
    bulk, scalar = LogHistogram(), LogHistogram()
    bulk.observe_many(values)
    for v in values:
        scalar.observe(v)
    assert bulk._bins == scalar._bins
    assert bulk._underflow == scalar._underflow
    assert bulk.count == scalar.count
    for q in (0.01, 0.5, 0.999):
        assert bulk.quantile(q) == scalar.quantile(q)


def test_log_histogram_multi_quantile_single_walk():
    rng = random.Random(5)
    hist = LogHistogram()
    hist.observe_many([rng.expovariate(100.0) for _ in range(5_000)])
    qs = [0.1, 0.5, 0.99]
    assert hist.quantiles(qs) == [hist.quantile(q) for q in qs]
    assert LogHistogram().quantiles(qs) == [0.0, 0.0, 0.0]


def test_log_histogram_memory_constant_in_stream_length():
    hist = LogHistogram()
    nbins = len(hist._bins)
    rng = random.Random(2)
    for scale in (100, 10_000):
        for _ in range(scale):
            hist.observe(rng.expovariate(1.0))
        # The bin array never grows; the sketch holds no samples.
        assert len(hist._bins) == nbins
    assert hist.count == 10_100


# -- latency series row ----------------------------------------------------
def test_latency_series_row_is_exact_and_quantiles_bounded():
    # 1024 distinct dyadic values over four octaves: every partial sum
    # and the division by a power of two are exact, so the folded mean
    # must equal the exact one bit for bit.
    data = [round(2 ** (k / 256) * 2**20) * 2.0**-30 for k in range(1024)]
    random.Random(9).shuffle(data)
    series = StreamHub(Simulator(seed=0)).latency("lat")
    for x in data:
        series.observe(x)
    # All of it folds in one flush, through the vectorised path.
    assert len(data) > _VECTOR_CUTOFF
    row = series.sample_fields()
    # CSV_COLUMNS and the monitor read these fields in this order.
    assert list(row) == [
        "count", "mean", "stdev", "min", "max",
        "window_count", "window_mean", "window_max",
        "p50", "p99", "p999",
    ]
    assert row["count"] == len(data)
    assert row["mean"] == statistics.fmean(data)
    assert row["min"] == min(data)
    assert row["max"] == max(data)
    for q, label in ((0.5, "p50"), (0.99, "p99"), (0.999, "p999")):
        exact = exact_quantile(data, q)
        assert abs(row[label] - exact) <= exact / LogHistogram.SUBBUCKETS


# -- series windows vs an exact oracle -------------------------------------
def _burst(n, seed):
    rng = random.Random(seed)
    return [rng.uniform(-1e3, 1e3) for _ in range(n)]


def _expected(data):
    """(mean, variance, min, max) of ``data``; zeros when empty."""
    if not data:
        return 0.0, 0.0, 0.0, 0.0
    variance = statistics.variance(data) if len(data) > 1 else 0.0
    return statistics.fmean(data), variance, min(data), max(data)


def assert_tally_row(row, seen, window):
    mean, variance, low, high = _expected(seen)
    assert row["count"] == len(seen)
    assert row["mean"] == pytest.approx(mean, rel=1e-9, abs=1e-9)
    assert row["stdev"] ** 2 == pytest.approx(variance, rel=1e-9, abs=1e-6)
    assert (row["min"], row["max"]) == (low, high)
    mean, _, _, high = _expected(window)
    assert row["window_count"] == len(window)
    assert row["window_mean"] == pytest.approx(mean, rel=1e-9, abs=1e-9)
    assert row["window_max"] == high


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.floats(-1e3, 1e3)),
        # A burst may fill the buffer (once or twice) between samples.
        st.tuples(st.just("burst"), st.integers(1, _BUFFER_CAP + 1),
                  st.integers(0, 2**16)),
        # as_dict() reads (and folds) without closing a window.
        st.tuples(st.just("peek")),
        st.tuples(st.just("sample"), st.sampled_from([0.0, 0.25, 1.0, 3.5])),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(_OPS)
@example([
    ("burst", _BUFFER_CAP + 1, 1), ("burst", _BUFFER_CAP, 2),
    ("sample", 1.0), ("observe", 2.0), ("peek",), ("sample", 0.0),
    ("sample", 0.25),
])
def test_series_windows_match_oracle(ops):
    """Each row's window holds exactly the observations since the
    previous sample, and its cumulative fields hold all of them."""
    clock = Clock()
    tally = TallySeries("t")
    latency = LatencySeries("l")
    counter = CounterSeries("c", clock)
    seen: list[float] = []
    window: list[float] = []
    since = clock.now
    for op in ops:
        if op[0] in ("observe", "burst"):
            values = [op[1]] if op[0] == "observe" else _burst(*op[1:])
            for v in values:
                tally.observe(v)
                latency.observe(v)
                counter.add(v)
            assert len(tally._buf) < _BUFFER_CAP
            seen += values
            window += values
        elif op[0] == "peek":
            for series in (tally, latency, counter):
                series.as_dict()
        else:
            clock.now += op[1]
            assert_tally_row(tally.sample_fields(), seen, window)
            assert_tally_row(latency.sample_fields(), seen, window)
            row = counter.sample_fields()
            assert row["count"] == len(seen)
            assert row["total"] == pytest.approx(math.fsum(seen), abs=1e-6)
            assert row["window_count"] == len(window)
            assert row["window_total"] == pytest.approx(
                math.fsum(window), abs=1e-6
            )
            elapsed = clock.now - since
            assert row["rate"] == (len(window) / elapsed if elapsed else 0.0)
            window = []
            since = clock.now
