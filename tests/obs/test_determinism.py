"""Tracing must observe the simulation without perturbing it.

Same seed, same workload, tracing on vs off: identical phase
durations, identical cache counters, identical RNG stream states.
"""

import pytest

from repro.cluster import ClusterSpec, run_workload
from repro.obs import Tracer
from repro.workloads import IORWorkload


def _run(obs, s4d):
    spec = ClusterSpec(num_dservers=2, num_cservers=1, num_nodes=2, seed=13)
    workload = IORWorkload(2, 16 * 1024, 4 * 1024 * 1024,
                           pattern="random", seed=13, requests_per_rank=12)
    return run_workload(spec, workload, s4d=s4d, obs=obs, read_runs=2)


def _rng_states(cluster):
    return {
        name: stream.getstate()
        for name, stream in cluster.sim.rng._streams.items()
    }


# Both systems: the file servers' one request body serves stock and S4D.
@pytest.mark.parametrize("s4d", [True, False])
def test_tracing_is_invisible_to_the_simulation(s4d):
    tracer = Tracer()
    traced = _run(obs=tracer, s4d=s4d)
    plain = _run(obs=None, s4d=s4d)

    assert len(tracer) > 0, "tracer captured nothing"
    assert plain.phases.keys() == traced.phases.keys()
    for phase in plain.phases:
        assert plain.phases[phase].duration == traced.phases[phase].duration
        assert (plain.phases[phase].bytes_moved
                == traced.phases[phase].bytes_moved)
    assert plain.cluster.sim.now == traced.cluster.sim.now
    assert (plain.cluster.sim.events_scheduled
            == traced.cluster.sim.events_scheduled)
    if s4d:
        assert plain.metrics.as_dict() == traced.metrics.as_dict()
    assert _rng_states(plain.cluster) == _rng_states(traced.cluster)
