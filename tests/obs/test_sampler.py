"""Sampler cadence, pause determinism, writers, hub registry."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs.streaming import (
    CSV_COLUMNS,
    Sampler,
    StreamHub,
    make_writer,
)
from repro.sim import Simulator


def _emitter(sim, series, period, count):
    for i in range(count):
        yield sim.timeout(period)
        series.observe(1e-3 * (i + 1))


def _build(tmp_path, fmt="jsonl", interval=1.0):
    sim = Simulator(seed=3)
    hub = StreamHub(sim)
    writer = make_writer(str(tmp_path / f"series.{fmt}"), fmt)
    sampler = Sampler(sim, hub, writer, interval)
    return sim, hub, writer, sampler


def _jsonl_rows(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _check_cadence(tmp_path, interval):
    sim, hub, writer, sampler = _build(tmp_path, interval=interval)
    latency = hub.latency("svc.latency")
    hub.counter("svc.ops")
    sim.spawn(_emitter(sim, latency, 0.25, 20))  # runs 0.25 .. 5.0
    sampler.start()
    sim.run(until=5.0)
    sampler.close()
    rows = _jsonl_rows(writer.path)
    # Tick k fires at t_k = t_{k-1} + interval, bit for bit (the
    # emitter keeps the sim alive through 5.0); the final pause()
    # sample follows.  Two series, so two rows per sample.
    chain = []
    t = 0.0
    while t + interval <= 5.0:
        t += interval
        chain.append(t)
    assert len(chain) == round(5.0 / interval)
    assert sampler.samples_taken == len(chain) + 1
    assert len(rows) == 2 * sampler.samples_taken
    assert [row["t"] for row in rows[::2]] == chain + [sim.now]
    latency_rows = [row for row in rows
                    if row["series"] == "svc.latency"]
    final = latency_rows[-1]
    assert final["count"] == 20
    assert final["kind"] == "latency"
    assert {"p50", "p99", "p999", "window_count"} <= set(final)
    # Consecutive windows partition the observations.
    assert sum(row["window_count"] for row in latency_rows) == 20


def test_sampler_cadence_one_row_per_series_per_tick(tmp_path):
    _check_cadence(tmp_path, 1.0)


def test_sampler_non_dyadic_ticks_follow_cumulative_chain(tmp_path):
    # 0.1 summed fifty times is 4.999999999999998, not 5.0, so a
    # sampler that armed tick k at k * interval fails this one.
    _check_cadence(tmp_path, 0.1)


def test_sampler_pause_cancels_tick_without_clock_impact(tmp_path):
    def drive(sampled):
        sim = Simulator(seed=3)
        log = []

        def body():
            for i in range(4):
                yield sim.timeout(0.3)
                log.append(sim.now)

        sim.spawn(body())
        if sampled:
            hub = StreamHub(sim)
            writer = make_writer(str(tmp_path / "pause.jsonl"), "jsonl")
            sampler = Sampler(sim, hub, writer, interval=0.5)
            sampler.start()
            sim.run(until=0.6)
            sampler.pause()  # cancels the pending t=1.0 tick
            assert not sampler.running
            sim.run()
            sampler.close()
        else:
            sim.run(until=0.6)
            sim.run()
        return [t.hex() for t in log] + [sim.now.hex()]

    assert drive(sampled=True) == drive(sampled=False)


def test_sampler_restart_after_pause(tmp_path):
    sim, hub, writer, sampler = _build(tmp_path)
    series = hub.counter("ops")
    sim.spawn(_emitter(sim, hub.latency("lat"), 0.2, 30))
    series.add(1.0)
    sampler.start()
    sampler.start()  # idempotent
    sim.run(until=2.0)
    sampler.pause()
    taken = sampler.samples_taken
    sampler.phase = "second"
    sampler.start()
    sim.run(until=6.5)
    sampler.close()
    assert sampler.samples_taken > taken
    rows = _jsonl_rows(writer.path)
    assert {row["phase"] for row in rows} == {None, "second"}


def test_csv_writer_schema(tmp_path):
    sim, hub, writer, sampler = _build(tmp_path, fmt="csv")
    hub.counter("ops").add(3.0)
    hub.gauge("depth", lambda: 7.0)
    sim.spawn(_emitter(sim, hub.latency("lat"), 0.5, 4))
    sampler.start()
    sim.run(until=2.0)  # the sampler ticks forever; bound the run
    sampler.close()
    with open(writer.path) as fh:
        header = fh.readline().strip().split(",")
        body = fh.read().strip().splitlines()
    assert header == list(CSV_COLUMNS)
    assert body  # one line per series per tick
    assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in body)


def test_make_writer_rejects_unknown_format(tmp_path):
    with pytest.raises(ConfigError):
        make_writer(str(tmp_path / "x.bin"), "parquet")


def test_sampler_rejects_nonpositive_interval(tmp_path):
    sim = Simulator(seed=1)
    hub = StreamHub(sim)
    writer = make_writer(str(tmp_path / "x.jsonl"), "jsonl")
    with pytest.raises(ConfigError):
        Sampler(sim, hub, writer, interval=0.0)
    writer.close()


def test_hub_registry_dedup_and_validation():
    sim = Simulator(seed=1)
    hub = StreamHub(sim)
    a = hub.counter("cache.hits")
    assert hub.counter("cache.hits") is a  # same name -> same series
    assert hub.latency("lat") is hub.latency("lat")
    with pytest.raises(ConfigError):
        hub.gauge("cache.hits", lambda: 0.0)  # cross-kind collision
    # Get-or-create never hands back a series of another kind (a
    # latency series is a tally underneath, but not a "tally").
    for make, name in ((hub.counter, "lat"), (hub.tally, "lat"),
                       (hub.latency, "cache.hits"),
                       (hub.tally, "cache.hits")):
        with pytest.raises(ConfigError):
            make(name)
    assert "cache.hits" in hub
    assert len(hub) == 2
    assert hub.names() == ["cache.hits", "lat"]
    assert hub.get("lat").kind == "latency"


def test_hub_rows_sorted_and_typed():
    sim = Simulator(seed=1)
    hub = StreamHub(sim)
    hub.gauge("z.gauge", lambda: 1.5)
    hub.counter("a.counter").add(2.0)
    hub.tally("m.tally").observe(4.0)
    rows = hub.rows()
    assert [row["series"] for row in rows] == ["a.counter", "m.tally",
                                               "z.gauge"]
    kinds = {row["series"]: row["kind"] for row in rows}
    assert kinds == {"a.counter": "counter", "m.tally": "tally",
                     "z.gauge": "gauge"}


def test_buffered_series_memory_bounded():
    # A hook storm between sample ticks must not grow memory without
    # bound: a tally's value buffer self-drains at the cap, and a
    # counter keeps no buffer, only its two running sums.
    from repro.obs.streaming.hub import _BUFFER_CAP

    sim = Simulator(seed=1)
    hub = StreamHub(sim)
    latency = hub.latency("lat")
    counter = hub.counter("ops")
    for i in range(5 * _BUFFER_CAP):
        latency.observe(1e-4)
        counter.add(1.0)
        assert len(latency._buf) < _BUFFER_CAP
    assert latency.cumulative.count == 5 * _BUFFER_CAP
    assert (counter.count, counter.total) == (5 * _BUFFER_CAP,
                                              5.0 * _BUFFER_CAP)
