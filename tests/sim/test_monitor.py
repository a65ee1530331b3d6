"""Tests for measurement helpers."""

import random

import pytest

from repro.sim.monitor import Counter, IntervalLog, Tally


def test_counter():
    c = Counter("bytes")
    c.add(100)
    c.add(50)
    assert c.count == 2
    assert c.total == 150
    assert c.mean == 75
    assert Counter("empty").mean == 0.0


def test_tally_statistics():
    t = Tally()
    for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
        t.observe(v)
    assert t.count == 8
    assert t.mean == pytest.approx(5.0)
    assert t.stdev == pytest.approx(2.138, rel=1e-3)
    assert t.minimum == 2.0
    assert t.maximum == 9.0


def test_tally_empty_and_single():
    t = Tally()
    assert t.mean == 0.0
    assert t.variance == 0.0
    t.observe(3.0)
    assert t.mean == 3.0
    assert t.variance == 0.0


def test_tally_empty_extrema_are_zero():
    # A fresh tally used to leak its +/-inf sentinels into reports.
    t = Tally()
    assert t.minimum == 0.0
    assert t.maximum == 0.0
    t.observe(-2.0)
    assert t.minimum == -2.0
    assert t.maximum == -2.0


def test_tally_merge_matches_observing_each_sample():
    rng = random.Random(4)
    data = [rng.uniform(-5.0, 50.0) for _ in range(200)]
    merged, observed = Tally(), Tally()
    for start in range(0, len(data), 37):
        batch = data[start:start + 37]
        mean = sum(batch) / len(batch)
        m2 = sum((x - mean) ** 2 for x in batch)
        merged.merge(len(batch), mean, m2, min(batch), max(batch))
    for x in data:
        observed.observe(x)
    assert merged.count == observed.count
    assert merged.mean == pytest.approx(observed.mean, rel=1e-12)
    assert merged.variance == pytest.approx(observed.variance, rel=1e-12)
    assert (merged.minimum, merged.maximum) == (min(data), max(data))
    # Into an empty tally a batch lands exactly.
    first = Tally()
    first.merge(3, 2.5, 4.5, 1.0, 4.0)
    assert (first.count, first.mean, first.variance) == (3, 2.5, 2.25)


def test_interval_log_merges_overlaps():
    log = IntervalLog()
    log.record(0.0, 2.0)
    log.record(1.0, 3.0)   # overlaps
    log.record(5.0, 6.0)   # disjoint
    assert log.busy_time() == pytest.approx(4.0)


def test_interval_log_rejects_backwards():
    log = IntervalLog()
    with pytest.raises(ValueError):
        log.record(2.0, 1.0)


def test_interval_log_empty():
    assert IntervalLog().busy_time() == 0.0
