"""Unit tests for simulated processes."""

import gc

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import Simulator

from ..gcutil import collector, cyclic_garbage


def test_process_runs_and_returns_value():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return "done"

    result = sim.run_process(body())
    assert result == "done"
    assert sim.now == 3.0


def test_process_receives_event_values():
    sim = Simulator()

    def body():
        got = yield sim.timeout(1.0, value="tick")
        return got

    assert sim.run_process(body()) == "tick"


def test_join_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return 99

    def parent():
        proc = sim.spawn(child())
        value = yield proc
        return (sim.now, value)

    assert sim.run_process(parent()) == (5.0, 99)


def test_nested_spawn_concurrency():
    sim = Simulator()
    log = []

    def worker(ident, delay):
        yield sim.timeout(delay)
        log.append((sim.now, ident))
        return ident

    def parent():
        procs = [sim.spawn(worker(i, 3.0 - i)) for i in range(3)]
        results = yield sim.all_of(procs)
        return results

    assert sim.run_process(parent()) == [0, 1, 2]
    assert log == [(1.0, 2), (2.0, 1), (3.0, 0)]


def test_unhandled_process_exception_propagates_to_run():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("kaboom")

    sim.spawn(body())
    with pytest.raises(RuntimeError, match="kaboom"):
        sim.run()


def test_joined_process_exception_delivered_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child error")

    def parent():
        try:
            yield sim.spawn(child())
        except ValueError as exc:
            return f"caught {exc}"
        return "not caught"

    assert sim.run_process(parent()) == "caught child error"


def test_kill_interrupts_waiting_process():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except ProcessKilled:
            log.append(sim.now)
            return "killed"
        return "survived"

    def killer(proc):
        yield sim.timeout(2.0)
        proc.kill()

    def parent():
        proc = sim.spawn(victim())
        sim.spawn(killer(proc))
        return (yield proc)

    assert sim.run_process(parent()) == "killed"
    assert log == [2.0]
    # The stale 100s timeout must not resurrect the dead process.
    assert sim.now >= 2.0


def test_kill_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return 1

    def parent():
        proc = sim.spawn(quick())
        yield proc
        proc.kill()  # already done; must not raise
        return proc.value

    assert sim.run_process(parent()) == 1


def test_a_killed_process_leaves_no_cycle():
    # The frame that catches the kill holds both the process and the
    # exception, so the kill's traceback must not be kept.
    sim = Simulator()

    def victim():
        yield sim.timeout(100.0)

    def killer(proc):
        yield sim.timeout(2.0)
        proc.kill()

    proc = sim.spawn(victim())
    proc.add_callback(lambda _event: None)  # joined: the kill is no crash
    sim.spawn(killer(proc))
    gc.collect()
    with collector(False):
        sim.run()
        assert isinstance(proc.exception, ProcessKilled)
        assert proc.exception.__traceback__ is None
        del proc
        assert cyclic_garbage() == {}


def test_a_crash_keeps_its_traceback():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.spawn(crasher())
    with pytest.raises(ValueError) as excinfo:
        sim.run()
    assert "crasher" in [entry.name for entry in excinfo.traceback]


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def body():
        yield 42  # type: ignore[misc]

    sim.spawn(body())
    with pytest.raises(SimulationError, match="expected an Event"):
        sim.run()


def test_process_body_must_be_generator():
    sim = Simulator()
    with pytest.raises(SimulationError, match="generator"):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_run_process_detects_deadlock():
    sim = Simulator()

    def stuck():
        yield sim.event()  # nobody will ever trigger this

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


def test_run_until_pauses_clock():
    sim = Simulator()
    log = []

    def body():
        for _ in range(10):
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.spawn(body())
    sim.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert sim.now == 3.5
    sim.run()
    assert log[-1] == 10.0
