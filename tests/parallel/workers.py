"""Module-level workers for the fan-out tests.

The spawn start method pickles workers by qualified name, so anything
a test sends to ``steal_fanout`` must live here, not in a test function.
"""

from __future__ import annotations


def square(payload: int) -> int:
    return payload * payload


def crash_on_three(payload: int) -> int:
    if payload == 3:
        raise ValueError(f"synthetic failure on payload {payload}")
    return payload * 10


def die_hard_on_three(payload: int) -> int:
    """A hard death: the process exits without a traceback message."""
    if payload == 3:
        import os

        os._exit(17)
    return payload * 10


def die_hard_on_three_beside_slow_zero(payload: int) -> int:
    """Payload 3 dies hard while a healthy, slower payload 0 still runs."""
    if payload == 0:
        import time

        time.sleep(1.0)
    return die_hard_on_three(payload)


def uneven_sleep_square(payload) -> int:
    """Heterogeneous unit cost: payload is (value, sleep_seconds)."""
    import time

    value, naptime = payload
    time.sleep(naptime)
    return value * value


def seeded_draws(payload) -> list[float]:
    """Per-task seeded RNG: results depend on the payload seed only."""
    from repro.sim.rng import RandomStreams

    seed, n = payload
    stream = RandomStreams(seed).stream("pool-test")
    return [stream.random() for _ in range(n)]
