"""Synchronization / queueing primitives built on the event core.

These are *simulation-domain* primitives (zero real concurrency): they let
simulated processes hand values to each other and block deterministically.
The hardware and MPI layers build mailboxes, FIFOs, and rendezvous protocols
out of these.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.errors import SimulationError
from repro.simtime.core import Event, Simulator

__all__ = ["Channel", "Semaphore", "CountdownLatch"]


class Channel:
    """Unbounded FIFO channel: ``put`` never blocks, ``get`` returns an event.

    Items are matched to getters strictly in FIFO order, so a channel is also
    a deterministic queue of wakeups.
    """

    def __init__(self, sim: Simulator, name: str = "channel"):
        self.sim = sim
        self.name = name
        self._get_name = f"{name}:get"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest *live* blocked getter, if any.

        Getters whose process was forcibly unwound (rank crash, abort) are
        marked abandoned and skipped — handing them the item would lose it,
        since the stale-wakeup guard drops the delivery.
        """
        while self._getters:
            ev = self._getters.popleft()
            if ev._abandoned:
                continue
            ev.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        ev = Event(self.sim, name=self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiters(self) -> int:
        return len(self._getters)

    def reset(self) -> None:
        """Drop all buffered items and forget blocked getters (owner death).

        Forgotten getter events are left untriggered forever; callers must
        separately unwind the processes parked on them (kill/throw), which
        is exactly what the rank-failure path does.
        """
        self._items.clear()
        self._getters.clear()


class Semaphore:
    """Counting semaphore with FIFO grant order."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "sem"):
        if capacity < 0:
            raise SimulationError(f"semaphore capacity must be >= 0, got {capacity}")
        self.sim = sim
        self.name = name
        self._acquire_name = f"{name}:acquire"
        self.capacity = capacity
        self.epoch = 0  # bumped by reset(); invalidates held units
        self._available = capacity
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self._available

    def acquire(self) -> Event:
        """Return an event that succeeds once a unit is held."""
        ev = Event(self.sim, name=self._acquire_name)
        if self._available > 0:
            self._available -= 1
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return one unit; hands it directly to the oldest *live* waiter.

        Waiters abandoned by a forced unwind (rank crash, abort) are
        skipped, not granted: a token handed to a stale acquire event is a
        token leaked, and with it eventually the whole semaphore.
        """
        while self._waiters:
            ev = self._waiters.popleft()
            if ev._abandoned:
                continue
            ev.succeed(None)
            return
        if self._available >= self.capacity:
            raise SimulationError(f"semaphore {self.name} over-released")
        self._available += 1

    def reset(self) -> None:
        """Restore full capacity and forget blocked acquirers (owner death).

        Same contract as :meth:`Channel.reset`: abandoned acquire events
        never trigger; the failure path must unwind their waiters itself.
        Bumps :attr:`epoch` so a holder unwinding *after* the reset can see
        its unit was already reclaimed and must not release it again.
        """
        self.epoch += 1
        self._available = self.capacity
        self._waiters.clear()


class CountdownLatch:
    """One-shot latch: ``wait()`` events fire once ``arrive()`` ran N times."""

    def __init__(self, sim: Simulator, count: int, name: str = "latch"):
        if count < 0:
            raise SimulationError(f"latch count must be >= 0, got {count}")
        self.sim = sim
        self.name = name
        self._remaining = count
        self._waiters: list[Event] = []

    @property
    def remaining(self) -> int:
        return self._remaining

    def arrive(self, n: int = 1) -> None:
        if n < 1:
            raise SimulationError("arrive() count must be >= 1")
        if self._remaining == 0:
            raise SimulationError(f"latch {self.name} already open")
        if n > self._remaining:
            raise SimulationError(
                f"latch {self.name} over-arrived ({n} > {self._remaining})")
        self._remaining -= n
        if self._remaining == 0:
            waiters, self._waiters = self._waiters, []
            for ev in waiters:
                ev.succeed(None)

    def wait(self) -> Event:
        ev = Event(self.sim, name=f"{self.name}:wait")
        if self._remaining == 0:
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev
