"""Shared resources for simulated processes.

:class:`PriorityResource` models a server with limited concurrency and a
priority queue — the exact construct §III.F of the paper needs: the
Rebuilder issues *low-priority* reorganisation I/O so normal requests
are served first.

:class:`Store` is an unbounded FIFO message queue (used for mailboxes
between MPI ranks and background helper threads).
"""

from __future__ import annotations

import heapq
import typing

from ..errors import SimulationError
from .events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

#: Priority used by ordinary application I/O.
PRIORITY_NORMAL = 0
#: Priority used by the Rebuilder's background reorganisation I/O.
PRIORITY_LOW = 10


#: Upper bound on pooled Grant instances kept per resource.
_GRANT_POOL_LIMIT = 64


class Grant(Event):
    """Event returned by :meth:`PriorityResource.acquire`.

    Fires (with the grant itself as value) when the resource slot is
    granted; pass it back to :meth:`PriorityResource.release`.

    Grants are recycled through a small per-resource pool once they
    are *processed and released* — the acquire/release idiom (SIM001)
    releases in a ``finally`` and drops the handle, so a released
    grant is dead to its holder.  Re-reading a grant after releasing
    it is outside the pooling contract (``Simulator(pooling=False)``
    disables the pool for differential testing).  Releasing a
    processed grant clears its value, pooled or not: the value is the
    grant itself, and a grant left pointing at itself could only be
    freed by the cyclic garbage collector.
    """

    __slots__ = ("resource", "priority", "released")

    def __init__(self, resource: "PriorityResource", priority: int):
        # Event.__init__ unrolled: grants are allocated once per device
        # operation and network hop, making this one of the hottest
        # constructors in the engine.
        self.sim = resource.sim
        self._cb0 = None
        self._callbacks = None
        self._value = None
        self._exc = None
        self._triggered = False
        self._processed = False
        self._had_joiners = False
        self.resource = resource
        self.priority = priority
        self.released = False


class PriorityResource:
    """A resource with ``capacity`` concurrent slots and priority waiting.

    Lower ``priority`` values are served first; ties are FIFO.  Usage::

        grant = yield device.acquire(priority=PRIORITY_NORMAL)
        try:
            yield sim.timeout(service_time)
        finally:
            device.release(grant)
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: list[tuple[int, int, Grant]] = []
        self._seq = 0
        self._grant_pool: list[Grant] = []
        self._grant_limit = _GRANT_POOL_LIMIT if sim.pooling else 0

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def acquire(self, priority: int = PRIORITY_NORMAL) -> Grant:
        """Request a slot; returns a :class:`Grant` event to yield on.

        Callers must release the grant in a ``finally`` block (simlint
        SIM001 enforces this tree-wide): a process killed while holding
        a slot would otherwise wedge the resource for the whole run.
        """
        pool = self._grant_pool
        if pool:
            grant = pool.pop()
            # _cb0/_callbacks/_exc are provably None on a processed-
            # and-released grant; _value was cleared at recycle time.
            grant._triggered = False
            grant._processed = False
            grant._had_joiners = False
            grant.priority = priority
            grant.released = False
        else:
            grant = Grant(self, priority)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            # Inlined grant.succeed(grant) zero-delay path (the grant
            # is fresh, so the already-triggered check cannot fire).
            grant._triggered = True
            grant._value = grant
            sim = self.sim
            sim._seq = grant._qseq = sim._seq + 1
            sim._runq.append(grant)
        else:
            self._seq += 1
            heapq.heappush(self._waiters, (priority, self._seq, grant))
        return grant

    def release(self, grant: Grant) -> None:
        """Return a previously granted slot; wakes the next waiter."""
        if grant.resource is not self:
            raise SimulationError("grant released on the wrong resource")
        if grant.released:
            raise SimulationError("double release of a resource grant")
        if not grant.triggered:
            raise SimulationError("release of a grant that was never acquired")
        grant.released = True
        if self._waiters:
            next_grant = heapq.heappop(self._waiters)[2]
            # Inlined next_grant.succeed(next_grant): a queued grant is
            # untriggered by construction.
            next_grant._triggered = True
            next_grant._value = next_grant
            sim = self.sim
            sim._seq = next_grant._qseq = sim._seq + 1
            sim._runq.append(next_grant)
        else:
            self._in_use -= 1
        if grant._processed:
            # Processed + released: the handle is dead to its holder
            # (see the Grant docstring), so drop the self-reference
            # even when the pool is full.  An unprocessed grant — e.g.
            # released while still pending in the run queue — keeps its
            # value and is never pooled, so the dispatch it still owes
            # stays safe.
            grant._value = None
            if len(self._grant_pool) < self._grant_limit:
                self._grant_pool.append(grant)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PriorityResource {self.name or id(self)} "
            f"{self._in_use}/{self.capacity} used, {len(self._waiters)} waiting>"
        )


class Store:
    """Unbounded FIFO store of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    next item (in put order), waking getters in request order.
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._items: list[typing.Any] = []
        self._getters: list[Event] = []

    def put(self, item: typing.Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        # sim.event() recycles pooled generic events: a get whose sole
        # consumer is a process resume costs no allocation at all.
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.pop(0))
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)
