"""Synchronization resources built on the kernel: queues, locks, semaphores.

These are the building blocks used by mailboxes, broker consumers, lock
managers, and connection pools throughout :mod:`repro`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.environment import Environment, SimulationError
from repro.sim.events import Future


class Channel:
    """Unbounded FIFO channel: ``put`` never blocks, ``get`` returns a future.

    Items put while getters are waiting are handed to the oldest getter.
    """

    def __init__(self, env: Environment, label: str = "channel") -> None:
        self.env = env
        self.label = label
        self._items: Deque[Any] = deque()
        self._getters: Deque[Future] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        if self._closed:
            raise SimulationError(f"put() on closed channel {self.label!r}")
        while self._getters:
            getter = self._getters.popleft()
            if not getter.done:  # skip getters cancelled by interrupts
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Future:
        """Return a future resolving with the next item."""
        fut = Future(self.env, label=f"{self.label}.get")
        if self._items:
            fut.succeed(self._items.popleft())
        elif self._closed:
            fut.fail(ChannelClosed(self.label))
        else:
            self._getters.append(fut)
        return fut

    def close(self) -> None:
        """Close the channel; pending and future getters fail."""
        self._closed = True
        while self._getters:
            getter = self._getters.popleft()
            getter.try_fail(ChannelClosed(self.label))


class ChannelClosed(Exception):
    """Raised to getters when a channel is closed."""


class Lock:
    """A non-reentrant mutex with FIFO granting.

    ``acquire`` returns a future that resolves when the lock is held.  The
    typical use inside a process is::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    def __init__(self, env: Environment, label: str = "lock") -> None:
        self.env = env
        self.label = label
        self._locked = False
        self._waiters: Deque[Future] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Future:
        fut = Future(self.env, label=f"{self.label}.acquire")
        if not self._locked:
            self._locked = True
            fut.succeed(None)
        else:
            self._waiters.append(fut)
        return fut

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"release() of unheld lock {self.label!r}")
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done:
                waiter.succeed(None)
                return
        self._locked = False


class Semaphore:
    """Counting semaphore with FIFO granting (connection pools, slots)."""

    def __init__(self, env: Environment, permits: int, label: str = "semaphore") -> None:
        if permits <= 0:
            raise ValueError("permits must be positive")
        self.env = env
        self.label = label
        self._permits = permits
        self._available = permits
        self._waiters: Deque[Future] = deque()

    def acquire(self) -> Future:
        fut = Future(self.env, label=f"{self.label}.acquire")
        if self._available > 0:
            self._available -= 1
            fut.succeed(None)
        else:
            self._waiters.append(fut)
        return fut

    def release(self) -> None:
        if self._available >= self._permits and not self._waiters:
            raise SimulationError(f"release() beyond capacity on {self.label!r}")
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done:
                waiter.succeed(None)
                return
        self._available += 1
