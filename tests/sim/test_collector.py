"""``Simulator.run()`` keeps the cyclic garbage collector out of its loop.

The collector is off while the loop runs, profiled or not, and the
caller's setting comes back on every exit.
"""

import gc

import pytest

from repro.obs.streaming import EngineProfiler
from repro.sim import Simulator

from ..gcutil import collector

STATES = pytest.mark.parametrize("enabled", [True, False],
                                 ids=["enabled", "disabled"])
LOOPS = pytest.mark.parametrize("profiled", [False, True],
                                ids=["plain", "profiled"])


def _sim(profiled: bool) -> Simulator:
    sim = Simulator()
    if profiled:
        EngineProfiler(sim)
    return sim


@STATES
@LOOPS
def test_run_turns_the_collector_off_and_restores_it(enabled, profiled):
    sim = _sim(profiled)
    seen = []

    def body():
        seen.append(gc.isenabled())
        yield sim.timeout(1.0)
        seen.append(gc.isenabled())

    sim.spawn(body())
    with collector(enabled):
        sim.run()
        after = gc.isenabled()
    assert seen == [False, False]
    assert after is enabled


@STATES
@LOOPS
def test_a_raised_crash_restores_the_collector(enabled, profiled):
    sim = _sim(profiled)

    def body():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.spawn(body())  # unjoined: run() raises the crash
    with collector(enabled):
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        after = gc.isenabled()
    assert after is enabled
