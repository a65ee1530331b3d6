"""Helpers for tests that guard against reference cycles.

``Simulator.run()`` keeps Python's cyclic garbage collector off while
its loop runs, which is safe only while a run creates no reference
cycles.  The guard tests run a workload with the collector off, so no
collection can hide a cycle, and then count what one full collection
finds unreachable.
"""

from __future__ import annotations

import collections
import contextlib
import gc


@contextlib.contextmanager
def collector(enabled: bool):
    """Set the collector on or off for the block; restore it after."""
    before = gc.isenabled()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        if before:
            gc.enable()
        else:
            gc.disable()


def cyclic_garbage() -> collections.Counter:
    """Type-name counts of the cyclic garbage one full collection finds.

    Collects under ``gc.DEBUG_SAVEALL``, which keeps unreachable objects
    in ``gc.garbage`` instead of freeing them.  Call it while the
    collector is still off: once it is back on, the next allocation can
    collect the garbage unseen.  Whatever the caller still references is
    reachable and not counted, so keep the simulator (and anything built
    on it) referenced: its own graph is cyclic by construction, because
    pooled events point back at it.
    """
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
