"""FIFO per-key lock manager for simulated processes.

In the paper "each process sends a lock request to access the DMT
table"; Berkeley DB's lock subsystem arbitrates.  Here every key has a
FIFO queue of waiting processes.  Locks are events: yield the acquire
to block until granted.
"""

from __future__ import annotations

import typing

from ..errors import KVStoreError
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
        """Withdraw a pending acquire (a killed waiter's)."""
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
