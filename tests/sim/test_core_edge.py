"""Edge-case tests for the simulator core."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_step_on_empty_queue_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_run_until_in_past_rejected():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_until_advances_clock_without_events():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_queued_events_counts():
    sim = Simulator()
    assert sim.queued_events == 0
    sim.timeout(1.0)
    sim.timeout(2.0)
    assert sim.queued_events == 2
    sim.run()
    assert sim.queued_events == 0


def test_negative_schedule_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        # The engine must reject past scheduling; this is the
        # negative test for that guard.
        ev.succeed(delay=-1.0)  # simlint: disable=SIM002


def test_condition_value_collection_order():
    sim = Simulator()
    events = [sim.timeout(2.0, "b"), sim.timeout(1.0, "a")]
    combo = sim.all_of(events)
    sim.run()
    # Values keep the construction order, not the firing order.
    assert combo.value == ["b", "a"]


def test_foreign_event_rejected():
    sim_a = Simulator()
    sim_b = Simulator()

    def body():
        yield sim_b.timeout(1.0)

    sim_a.spawn(body())
    with pytest.raises(SimulationError, match="foreign"):
        sim_a.run()
        sim_b.run()


def test_deterministic_replay():
    """Two simulators with the same seed produce identical schedules."""

    def run_once():
        sim = Simulator(seed=99)
        log = []

        def worker(ident):
            rng = sim.rng.stream(f"w{ident}")
            for _ in range(5):
                yield sim.timeout(rng.uniform(0.1, 1.0))
                log.append((round(sim.now, 9), ident))

        def parent():
            yield sim.all_of([sim.spawn(worker(i)) for i in range(3)])

        sim.run_process(parent())
        return log

    assert run_once() == run_once()
