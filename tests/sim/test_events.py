"""Unit tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    ev.succeed(42)
    sim.run()
    assert seen == [42]
    assert ev.processed and ev.ok


def test_event_fail_records_exception():
    sim = Simulator()
    ev = sim.event()
    boom = ValueError("boom")
    seen = []
    ev.add_callback(lambda e: seen.append(e.exception))
    ev.fail(boom)
    sim.run()
    assert seen == [boom]
    assert not ev.ok


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(ValueError())


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("late")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["late"]


def test_timeout_fires_at_right_time():
    sim = Simulator()
    times = []
    t = sim.timeout(2.5, value="hello")
    t.add_callback(lambda e: times.append((sim.now, e.value)))
    sim.run()
    assert times == [(2.5, "hello")]


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)  # simlint: disable=SIM002


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(5):
        t = sim.timeout(1.0, value=i)
        t.add_callback(lambda e: order.append(e.value))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    events = [sim.timeout(i, value=i) for i in (3.0, 1.0, 2.0)]
    combo = sim.all_of(events)
    seen = []
    combo.add_callback(lambda e: seen.append((sim.now, e.value)))
    sim.run()
    assert seen == [(3.0, [3.0, 1.0, 2.0])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    combo = sim.all_of([])
    sim.run()
    assert combo.processed and combo.value == []


def test_all_of_fails_fast_on_child_failure():
    sim = Simulator()
    bad = sim.event()
    slow = sim.timeout(10.0)
    combo = sim.all_of([bad, slow])
    combo.add_callback(lambda e: None)  # consume the failure
    bad.fail(RuntimeError("child failed"))
    sim.run()
    assert not combo.ok
    assert isinstance(combo.exception, RuntimeError)
