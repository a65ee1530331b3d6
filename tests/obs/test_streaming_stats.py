"""Streaming stats primitives: sketches vs exact, rollup vs oracle.

The telemetry plane's sketches claim bounded error and O(1) memory;
both claims are checked here against exact references
(``statistics.quantiles``, a brute-force windowed oracle) on seeded
streams.
"""

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.streaming import (
    LogHistogram,
    StreamHub,
    WindowedCounter,
    WindowedTally,
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


# -- windowed tally vs brute-force oracle ---------------------------------
def oracle_window(samples, now, window, buckets):
    """Brute-force trailing-window stats with bucket granularity."""
    span = window / buckets
    current = int(now / span)
    oldest = current - buckets + 1
    live = [v for t, v in samples if oldest <= int(t / span) <= current]
    return live


def assert_rollup_matches_oracle(tally, samples):
    """``tally`` (window 2.0, 8 buckets) rolled up at its clock's now."""
    window = tally.rollup()
    live = oracle_window(samples, tally.clock.now, 2.0, 8)
    assert window.count == len(live)
    if live:
        assert window.mean == pytest.approx(statistics.fmean(live))
        assert window.minimum == min(live)
        assert window.maximum == max(live)
        if len(live) > 1:
            assert window.variance == pytest.approx(
                statistics.variance(live), abs=1e-9
            )
    # Cumulative side is window-independent.
    values = [v for _, v in samples]
    assert tally.count == len(values)
    assert tally.mean == pytest.approx(statistics.fmean(values))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 50.0, allow_nan=False),
            st.floats(-1e3, 1e3, allow_nan=False),
        ),
        min_size=1,
        max_size=200,
    )
)
def test_windowed_tally_rollup_matches_oracle(raw):
    samples = sorted(raw, key=lambda tv: tv[0])
    clock = Clock()
    tally = WindowedTally(clock, window=2.0, buckets=8)
    for t, v in samples:
        clock.now = t
        tally.observe(v)
    assert_rollup_matches_oracle(tally, samples)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 50.0, allow_nan=False),
            st.floats(-1e3, 1e3, allow_nan=False),
        ),
        min_size=_VECTOR_CUTOFF,
        max_size=200,
    )
)
def test_windowed_tally_rollup_matches_oracle_unsorted(raw):
    """Late observations must not evict newer buckets from the ring.

    A file server stamps queue depth at arrival but records it at
    completion, so a tally sees times out of order.  Both fold paths
    (scalar ``observe`` and the vectorised ``observe_many``) are rolled
    up at the latest time and checked against the oracle.
    """
    now = max(t for t, _ in raw)
    clock = Clock()
    scalar = WindowedTally(clock, window=2.0, buckets=8)
    for t, v in raw:
        clock.now = t
        scalar.observe(v)
    clock.now = now
    assert_rollup_matches_oracle(scalar, raw)
    bulk = WindowedTally(clock, window=2.0, buckets=8)
    bulk.observe_many([t for t, _ in raw], [v for _, v in raw])
    assert_rollup_matches_oracle(bulk, raw)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 20.0, allow_nan=False),
            st.floats(1e-6, 1e2, allow_nan=False),
        ),
        min_size=1,
        max_size=300,
    ),
    st.integers(0, 2**32 - 1),
)
def test_bulk_fold_matches_scalar_path(raw, _seed):
    """observe_many/add_many ≡ a loop of observe/add (float tolerance)."""
    samples = sorted(raw, key=lambda tv: tv[0])
    times = [t for t, _ in samples]
    values = [v for _, v in samples]

    c1, c2 = Clock(), Clock()
    bulk_tally = WindowedTally(c1, window=1.0, buckets=4)
    bulk_tally.observe_many(times, values)
    scalar_tally = WindowedTally(c2, window=1.0, buckets=4)
    for t, v in samples:
        c2.now = t
        scalar_tally.observe(v)
    c1.now = c2.now
    a, b = bulk_tally.as_dict(), scalar_tally.as_dict()
    for key in a:
        assert a[key] == pytest.approx(b[key], rel=1e-9, abs=1e-9), key

    bulk_counter = WindowedCounter(c1, window=1.0, buckets=4)
    bulk_counter.add_many(times, values)
    scalar_counter = WindowedCounter(c2, window=1.0, buckets=4)
    for t, v in samples:
        c2.now = t
        scalar_counter.add(v)
    a, b = bulk_counter.as_dict(), scalar_counter.as_dict()
    for key in a:
        assert a[key] == pytest.approx(b[key], rel=1e-9, abs=1e-9), key


def test_windowed_counter_rate_and_window():
    clock = Clock()
    counter = WindowedCounter(clock, window=1.0, buckets=4)
    for i in range(10):
        clock.now = i * 0.1  # 0.0 .. 0.9: all inside one window
        counter.add(2.0)
    assert counter.count == 10
    assert counter.total == 20.0
    assert counter.window_count() == 10
    assert counter.rate() == 10.0
    clock.now = 5.0  # far future: the whole window is stale
    assert counter.window_count() == 0
    assert counter.rate() == 0.0
    assert counter.count == 10  # cumulative side unaffected


def test_windowed_tally_idle_gap_resets_slots():
    clock = Clock()
    tally = WindowedTally(clock, window=1.0, buckets=2)
    clock.now = 0.1
    tally.observe(100.0)
    clock.now = 10.0  # long idle: old bucket must not leak back in
    tally.observe(1.0)
    window = tally.rollup()
    assert window.count == 1
    assert window.mean == 1.0
    assert tally.count == 2


def test_quantile_sketch_validation():
    with pytest.raises(ConfigError):
        WindowedTally(Clock(), window=0.0)
    with pytest.raises(ConfigError):
        WindowedCounter(Clock(), window=1.0, buckets=0)
