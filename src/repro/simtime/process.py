"""Generator-based simulated processes and composite wait events.

A :class:`Process` wraps a generator.  The generator *yields* events (any
:class:`~repro.simtime.core.Event`) and is resumed with the event's value
once it triggers; failed events are re-raised inside the generator so
simulated code can use ordinary ``try``/``except``.  When the generator
returns, the process (itself an event) succeeds with the return value.

``yield from`` composes naturally, so the MPI layer exposes its operations
as sub-generators (``yield from comm.send(...)``).
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.errors import ProcessKilled, SimulationError
from repro.simtime.core import PENDING, Event, Simulator

__all__ = ["Process", "AllOf", "AnyOf"]


class Process(Event):
    """A coroutine scheduled by the simulator; also an awaitable event."""

    __slots__ = ("_gen", "_send", "_throw", "_waiting_on", "daemon", "owner",
                 "_death_callbacks", "_resume_cb")

    _ids = 0

    def __init__(self, sim: Simulator, gen: Generator, name: str = "",
                 daemon: bool = False, owner: "int | None" = None):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(gen).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        Process._ids += 1
        super().__init__(sim, name=name or f"process-{Process._ids}")
        self._gen = gen
        # Pre-bound generator entry points: one resume per event dispatched
        # makes the attribute lookup + method bind measurable at sweep scale.
        self._send = gen.send
        self._throw = gen.throw
        self.daemon = daemon
        self.owner = owner
        self._waiting_on: Event | None = None
        self._death_callbacks: list = []
        # One bound method reused for every wakeup instead of a fresh
        # closure per yield: processes re-arm on every event they wait on,
        # so this is one of the hottest allocation sites in a sweep.
        self._resume_cb = self._resume
        sim._live_processes[id(self)] = self
        # Kick off on the next queue dispatch at the current time.
        start = Event(sim, name=f"{self.name}:start")
        start.callbacks.append(self._start)  # type: ignore[union-attr]
        start.succeed(None)

    def _start(self, event: Event) -> None:
        self._resume(event, forced=True)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    @property
    def waiting_on(self) -> Event | None:
        """The event this process is currently blocked on (diagnostics)."""
        return self._waiting_on

    def _resume(self, event: Event, forced: bool = False) -> None:
        # Direct slot reads (not the triggered/value properties): this is
        # the hottest dispatch path of a sweep, entered once per generator
        # resumption.
        if self._value is not PENDING or \
                (not forced and self._waiting_on is not event):
            # Stale wakeup: the process was killed, or forcibly resumed
            # (interrupt/throw) while this event was still in flight.  Its
            # failure, if any, was aimed at a generator frame that no longer
            # exists — swallow it instead of crashing the simulator.
            if event._ok is False:
                event._defused = True
            return
        stale = self._waiting_on
        if stale is not None and stale is not event:
            # Forced delivery (interrupt/throw): the event the process was
            # genuinely blocked on may still sit in a primitive's waiter
            # queue.  Mark it abandoned so Semaphore/Channel hand-offs skip
            # it instead of granting a token nobody will ever use.
            stale._abandoned = True
        self._waiting_on = None
        sim = self.sim
        sim.process_resumes += 1
        try:
            if event._ok is False:
                event._defused = True
                target = self._throw(event._value)
            else:
                target = self._send(
                    event._value if event is not self else None)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as exc:
            self._finish_fail(exc)
            return
        if not isinstance(target, Event):
            self._finish_fail(
                SimulationError(
                    f"process {self.name} yielded {target!r}; "
                    "processes must yield Event objects"
                )
            )
            return
        if target.sim is not sim:
            self._finish_fail(
                SimulationError(
                    f"process {self.name} yielded an event from another simulator")
            )
            return
        self._waiting_on = target
        # Re-arm: the common first-waiter case takes the dedicated _pwait
        # slot (the dispatch loops fire it before the callbacks list, which
        # is registration order because it is only taken while the list is
        # empty); otherwise inline add_callback with the cached bound
        # method; already-processed targets need the zero-delay proxy.
        cbs = target.callbacks
        if cbs is not None:
            if cbs:
                cbs.append(self._resume_cb)
            elif target._pwait is None:
                target._pwait = self
            else:
                # Second same-instant waiter on an event whose callbacks
                # may be the shared _NO_CBS sentinel: copy-on-write.
                target.callbacks = [self._resume_cb]
        else:
            target.add_callback(self._resume_cb)

    def _finish_ok(self, value: Any) -> None:
        self.sim._live_processes.pop(id(self), None)
        self.succeed(value)
        self._fire_death()

    def _finish_fail(self, exc: BaseException) -> None:
        self.sim._live_processes.pop(id(self), None)
        self.fail(exc)
        self._fire_death()

    def _fire_death(self) -> None:
        callbacks, self._death_callbacks = self._death_callbacks, []
        for fn in callbacks:
            fn(self)

    def on_death(self, fn) -> None:
        """Register ``fn(process)`` to run when the process terminates.

        Fires synchronously on any termination — normal return, failure, or
        :meth:`kill` — so it suits idempotent resource reclamation (KNEM
        region/FIFO-slot teardown).  If the process already finished, ``fn``
        runs immediately.
        """
        if self.triggered:
            fn(self)
            return
        self._death_callbacks.append(fn)

    def kill(self, exc: "BaseException | None" = None) -> None:
        """Terminate the process now (fail-stop crash model).

        Unwinds the generator (``finally`` blocks run), fails the process's
        own event with ``exc`` (default :class:`ProcessKilled`), defuses the
        event it was blocked on so the later stale wakeup is harmless, and
        fires registered on-death cleanups.  Killing a finished process is a
        no-op.
        """
        if self.triggered:
            return
        if exc is None:
            exc = ProcessKilled(f"{self.name} killed")
        waited, self._waiting_on = self._waiting_on, None
        if waited is not None:
            waited._abandoned = True
        try:
            self._gen.close()
        except BaseException as err:
            # The generator refused to die quietly; its error wins so it is
            # not silently swallowed.
            exc = err
        # Deliberate termination: the failure is "observed" by the killer.
        self._defused = True
        self._finish_fail(exc)
        if waited is not None and waited._ok is False:
            waited._defused = True

    def throw(self, exc: BaseException, only_if=None) -> None:
        """Throw ``exc`` into the process at the current simulation time.

        Delivery goes through a zero-delay event so it interleaves
        deterministically with other same-instant wakeups.  ``only_if`` (a
        nullary predicate) is re-evaluated at delivery time: if it returns
        False, or the process finished in the meantime, the throw is dropped
        — this closes the race where a survivor completes its operation
        between a peer's death and the failure delivery.
        """
        if self.triggered:
            return
        ev = Event(self.sim, name=f"{self.name}:throw")
        ev._defused = True

        def deliver(event: Event) -> None:
            if self.triggered:
                return
            if only_if is not None and not only_if():
                return
            self._resume(event, forced=True)

        ev.add_callback(deliver)
        ev.fail(exc)

    def interrupt(self, reason: str = "") -> None:
        """Throw :class:`Interrupted` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        ev = Event(self.sim, name=f"{self.name}:interrupt")
        ev.add_callback(lambda event: self._resume(event, forced=True))
        ev._defused = True
        ev.fail(Interrupted(reason))


class Interrupted(SimulationError):
    """Raised inside a process that another process interrupted."""

    def __init__(self, reason: str = ""):
        super().__init__(reason or "interrupted")
        self.reason = reason


class AllOf(Event):
    """Succeeds when every child event has succeeded.

    The value is the list of child values, in the order the children were
    given.  If any child fails, the composite fails with that exception
    (first failure wins).
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: Simulator, events: Iterable[Event], name: str = "allof"):
        super().__init__(sim, name=name)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            if child._ok is False:
                child._defused = True
            return
        if child._ok is False:
            child._defused = True
            self.fail(child.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Event):
    """Succeeds when the first child triggers; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, sim: Simulator, events: Iterable[Event], name: str = "anyof"):
        super().__init__(sim, name=name)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for i, child in enumerate(self._children):
            child.add_callback(lambda ev, i=i: self._on_child(i, ev))

    def _on_child(self, index: int, child: Event) -> None:
        if self.triggered:
            if child._ok is False:
                child._defused = True
            return
        if child._ok is False:
            child._defused = True
            self.fail(child.value)
            return
        self.succeed((index, child.value))
