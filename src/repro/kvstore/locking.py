"""FIFO per-key lock manager for simulated processes.

In the paper "each process sends a lock request to access the DMT
table"; Berkeley DB's lock subsystem arbitrates.  Here every key has a
FIFO queue of waiting processes.  Locks are events: yield the acquire
to block until granted.
"""

from __future__ import annotations

import typing

from ..errors import KVStoreError, LockTimeout
from ..sim import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator


class LockToken:
    """Proof of lock ownership; pass back to release."""

    __slots__ = ("key", "owner")

    def __init__(self, key: str, owner: str):
        self.key = key
        self.owner = owner


class LockRequest(Event):
    """A pending :meth:`LockManager.acquire`; fires with its token."""

    __slots__ = ("manager", "token")

    def __init__(self, manager: "LockManager", token: LockToken):
        # Event.__init__ unrolled, as in Grant: every S4D request makes
        # one of these.
        self.sim = manager.sim
        self._cb0 = None
        self._callbacks = None
        self._value = None
        self._exc = None
        self._triggered = False
        self._processed = False
        self._had_joiners = False
        self.manager = manager
        self.token = token

    def _withdraw(self) -> None:
        # A killed waiter's queued request is cancelled; a lock handed
        # over but not yet delivered passes to the next waiter.
        self._cb0 = None
        if not self._triggered:
            self.manager.cancel(self.token.key, self)
        elif not self._processed:
            self._value = None
            self.manager.release(self.token)


class LockManager:
    """Per-key mutual exclusion with FIFO granting."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._held: dict[str, LockToken] = {}
        self._waiters: dict[str, list[tuple[Event, LockToken]]] = {}
        self.acquisitions = 0
        self.contentions = 0

    def acquire(self, key: str, owner: str = "") -> Event:
        """Request the lock on ``key``; yields the token when granted."""
        token = LockToken(key, owner)
        event = LockRequest(self, token)
        if key not in self._held:
            self._held[key] = token
            self.acquisitions += 1
            # Inlined event.succeed(token) zero-delay path (the request
            # is fresh, so the already-triggered check cannot fire).
            event._triggered = True
            event._value = token
            sim = self.sim
            sim._seq = event._qseq = sim._seq + 1
            sim._runq.append(event)
        else:
            self.contentions += 1
            self._waiters.setdefault(key, []).append((event, token))
        return event

    def release(self, token: LockToken) -> None:
        held = self._held.get(token.key)
        if held is not token:
            raise KVStoreError(
                f"release of lock {token.key!r} not held by this token"
            )
        queue = self._waiters.get(token.key)
        if queue:
            event, next_token = queue.pop(0)
            if not queue:
                del self._waiters[token.key]
            self._held[token.key] = next_token
            self.acquisitions += 1
            event.succeed(next_token)
        else:
            del self._held[token.key]

    def cancel(self, key: str, event: Event) -> None:
        """Withdraw a pending acquire (e.g. after a timeout)."""
        queue = self._waiters.get(key, [])
        for i, (waiting_event, _) in enumerate(queue):
            if waiting_event is event:
                del queue[i]
                if not queue:
                    self._waiters.pop(key, None)
                return
        raise KVStoreError(f"cancel: no pending acquire for {key!r}")

    def is_held(self, key: str) -> bool:
        return key in self._held

    def queue_length(self, key: str) -> int:
        return len(self._waiters.get(key, []))

    def with_lock(self, key: str, body, owner: str = ""):
        """Run generator ``body()`` while holding ``key``'s lock.

        Usage: ``result = yield from locks.with_lock(key, critical)``.
        """
        token = yield self.acquire(key, owner)
        try:
            result = yield from body()
        finally:
            self.release(token)
        return result


class TimeoutLock:
    """Helper wrapping LockManager.acquire with a deadline.

    Raises :class:`~repro.errors.LockTimeout` inside the waiting
    process if the lock is not granted in time.
    """

    def __init__(self, manager: LockManager, budget: float):
        if budget <= 0:
            raise KVStoreError("lock timeout budget must be positive")
        self.manager = manager
        self.budget = budget

    def acquire(self, key: str, owner: str = ""):
        """Process generator returning the token or raising LockTimeout."""
        sim = self.manager.sim
        # No try/finally here: on timeout the grant is either handed
        # back (granted same-instant) or cancelled below, and on grant
        # the *caller* owns the token and must release it.
        lock_event = self.manager.acquire(key, owner)  # simlint: disable=SIM001
        deadline = sim.timeout(self.budget)
        index, value = yield sim.any_of([lock_event, deadline])
        if index == 0:
            return value
        if lock_event.triggered:
            # Granted in the same instant the deadline fired: we own it
            # after all, so hand it back rather than leak the lock.
            self.manager.release(lock_event.value)
        else:
            self.manager.cancel(key, lock_event)
        raise LockTimeout(f"lock {key!r} not granted within {self.budget}s")
