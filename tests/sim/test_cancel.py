"""Simulator.cancel: lazy event cancellation without clock impact."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def _waiter(sim, delay, log, tag):
    yield sim.timeout(delay)
    log.append((tag, sim.now))


def test_cancelled_timeout_never_fires():
    sim = Simulator(seed=1)
    log = []
    doomed = sim.timeout(5.0)
    doomed.add_callback(lambda ev: log.append(("doomed", sim.now)))
    sim.spawn(_waiter(sim, 1.0, log, "live"))
    sim.cancel(doomed)
    sim.run()
    assert log == [("live", 1.0)]


def test_cancel_does_not_advance_clock():
    # Popping a cancelled event must not move sim.now: the final clock
    # equals the last *real* event's time, not the cancelled one's.
    sim = Simulator(seed=1)
    log = []
    sim.spawn(_waiter(sim, 1.0, log, "live"))
    doomed = sim.timeout(7.5)
    sim.cancel(doomed)
    sim.run()
    assert sim.now == 1.0


def test_cancel_matches_never_scheduled_run_bitwise():
    # The determinism contract behind the telemetry sampler: a run
    # where an extra event was scheduled then cancelled pops exactly
    # the same clock values as a run where it never existed.
    def drive(extra):
        sim = Simulator(seed=9)
        log = []
        for i in range(5):
            sim.spawn(_waiter(sim, 0.1 * (i + 1) / 3.0, log, i))
        if extra:
            sim.cancel(sim.timeout(0.05))
            sim.cancel(sim.timeout(123.0))
        sim.run()
        return [(tag, now.hex()) for tag, now in log] + [sim.now.hex()]

    assert drive(extra=True) == drive(extra=False)


def test_queued_events_excludes_cancelled():
    sim = Simulator(seed=1)
    pending = sim.timeout(2.0)
    sim.timeout(3.0)
    assert sim.queued_events == 2
    sim.cancel(pending)
    assert sim.queued_events == 1


def test_cancel_processed_event_is_noop():
    sim = Simulator(seed=1)
    log = []
    sim.spawn(_waiter(sim, 1.0, log, "a"))
    sim.run()
    tick = sim.timeout(0.5)
    sim.spawn(_waiter(sim, 1.0, log, "b"))
    sim.run()
    assert tick.processed
    sim.cancel(tick)  # no-op, no error
    assert sim.queued_events == 0


def test_cancel_with_until_window():
    sim = Simulator(seed=1)
    log = []
    sim.spawn(_waiter(sim, 1.0, log, "early"))
    doomed = sim.timeout(1.5)
    sim.spawn(_waiter(sim, 4.0, log, "late"))
    sim.cancel(doomed)
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert log == [("early", 1.0)]
    sim.run()
    assert log == [("early", 1.0), ("late", 4.0)]


def test_run_until_past_raises():
    sim = Simulator(seed=1)
    sim.spawn(_waiter(sim, 1.0, [], "x"))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=0.5)


@pytest.mark.parametrize("queue", ["heap"])
def test_cancel_heavy_run_keeps_queue_bounded(queue):
    """Lazy cancellation must not grow the timed queue without bound.

    A pause/resume-heavy caller (the telemetry sampler) cancels far
    more timers than it fires; compaction has to keep both the
    cancelled set and the queue proportional to the *live* entries,
    not to the total ever cancelled.  ``queue`` names the raw
    container whose length is checked, cancelled entries included.
    """
    from repro.sim.core import _COMPACT_MIN_CANCELLED

    sim = Simulator(seed=1)
    timed = getattr(sim, f"_{queue}")
    keep = [sim.timeout(10.0 + i * 1e-3) for i in range(32)]
    for round_ in range(50):
        doomed = [sim.timeout(1.0 + i * 1e-4) for i in range(100)]
        for ev in doomed:
            sim.cancel(ev)
        # Steady-state invariant after every round: compaction fires
        # once the cancelled set reaches a quarter of the live size,
        # so it can never exceed that watermark by more than a round.
        assert len(sim._cancelled) <= max(
            _COMPACT_MIN_CANCELLED + 100, sim.queued_events
        )
    # 5000 cancels later the queue holds ~the 32 live timers.
    assert sim.queued_events == 32
    assert len(sim._cancelled) < 5000 / 4
    assert len(timed) < 32 + 5000 / 4
    sim.run()
    assert all(ev.processed for ev in keep)
    assert sim.now == pytest.approx(10.0 + 31 * 1e-3)
    assert not sim._cancelled


def test_compaction_inside_run_keeps_the_running_queue():
    """Compaction triggered from inside ``run()`` must rebuild the heap
    the running loop pops from, not a replacement list it never sees.

    The process cancels enough of its own timers to trigger compaction
    mid-run.  The cancelled timers must stay cancelled, and the
    process's next timeout must still be popped.
    """
    sim = Simulator(seed=1)
    fired = []

    def body():
        timers = [sim.timeout(1.0 + i * 1e-3) for i in range(100)]
        for i, ev in enumerate(timers):
            ev.add_callback(lambda _ev, i=i: fired.append(i))
        for ev in timers[:80]:
            sim.cancel(ev)
        yield sim.all_of(timers[80:])
        yield sim.timeout(5.0)
        return sim.now

    assert sim.run_process(body()) == pytest.approx(1.099 + 5.0)
    assert fired == list(range(80, 100))
    assert not sim._cancelled
