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
from repro.simtime.core import _NO_CBS, PENDING, Event, Simulator, Timeout

__all__ = ["Process", "AllOf", "AnyOf"]


class Process(Event):
    """A coroutine scheduled by the simulator; also an awaitable event.

    A process is woken through the ``_pwait`` slot of the event it waits
    on.  Two wakeups have no waited event of their own and borrow a
    born-triggered zero-delay :class:`Timeout`: the first step (a new
    process starts at the current instant, after everything already
    queued), and a wait on an event that was already processed
    successfully (the Timeout carries its value).  A wait on a processed
    *failed* event goes through :meth:`Event.add_callback`'s proxy instead,
    because a Timeout cannot fail.
    """

    __slots__ = ("_gen", "_send", "_waiting_on", "daemon", "owner",
                 "_death_callbacks")

    _ids = 0

    def __init__(self, sim: Simulator, gen: Generator, name: str = "",
                 daemon: bool = False, owner: "int | None" = None):
        # Pre-bound generator entry point: one resume per event dispatched
        # makes the attribute lookup + method bind measurable at sweep scale.
        send = getattr(gen, "send", None)
        if send is None:
            raise SimulationError(
                f"process body must be a generator, got {type(gen).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        # Every simulated message starts one or two processes, so this
        # constructor inlines Event.__init__ and the start Timeout's.
        Process._ids += 1
        self.sim = sim
        self.callbacks = _NO_CBS
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._abandoned = False
        self._pwait = None
        self.name = name or f"process-{Process._ids}"
        self._gen = gen
        self._send = send
        self.daemon = daemon
        self.owner = owner
        #: on-death hooks, allocated by the first :meth:`on_death`
        self._death_callbacks: "list | None" = None
        sim._live_processes[id(self)] = self
        # Kick off on the next queue dispatch at the current time: a
        # zero-delay Timeout always lands on the current-instant FIFO.
        start = Timeout.__new__(Timeout)
        start.sim = sim
        start.callbacks = _NO_CBS
        start._value = None
        start._pwait = self
        start.name = ""
        start.delay = 0.0
        ready = sim._ready
        ready.append(start)
        n = len(ready) + len(sim._heap)
        if n > sim.peak_heap:
            sim.peak_heap = n
        self._waiting_on: Event | None = start

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    @property
    def waiting_on(self) -> Event | None:
        """The event this process is currently blocked on (diagnostics)."""
        return self._waiting_on

    def _resume(self, event: Event) -> None:
        # Direct slot reads (not the triggered/value properties): this is
        # the hottest dispatch path of a sweep, entered once per generator
        # resumption.
        if self._waiting_on is not event:
            # Stale wakeup: the process was killed or finished (both clear
            # ``_waiting_on``), or forcibly resumed (interrupt/throw) while
            # this event was still in flight.  Its failure, if any, was
            # aimed at a generator frame that no longer exists — swallow it
            # instead of crashing the simulator.
            if event._ok is False:
                event._defused = True
            return
        self._waiting_on = None
        sim = self.sim
        sim.process_resumes += 1
        try:
            if event._ok is False:
                event._defused = True
                target = self._gen.throw(event._value)
            else:
                target = self._send(event._value)
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
        # empty); otherwise inline add_callback.  An already-processed
        # target needs a fresh zero-delay wakeup.
        cbs = target.callbacks
        if cbs is not None:
            if cbs:
                cbs.append(self._resume)
            elif target._pwait is None:
                target._pwait = self
            else:
                # Second same-instant waiter on an event whose callbacks
                # may be the shared _NO_CBS sentinel: copy-on-write.
                target.callbacks = [self._resume]
        elif target._ok:
            late = Timeout(sim, 0.0, target._value)
            late._pwait = self
            self._waiting_on = late
        else:
            target.add_callback(self._resume)

    def _force(self, event: Event) -> None:
        """Resume with ``event`` whatever the process is blocked on.

        The delivery path of :meth:`throw` and :meth:`interrupt`.  The event
        the process was genuinely blocked on may still sit in a primitive's
        waiter queue: it is marked abandoned so Semaphore/Channel hand-offs
        skip it instead of granting a token nobody will ever use, and its
        own later wakeup is stale.
        """
        if self._value is not PENDING:
            return  # finished in the meantime; the failure is pre-defused
        stale = self._waiting_on
        if stale is not None and stale is not event:
            stale._abandoned = True
        self._waiting_on = event
        self._resume(event)

    def _finish_ok(self, value: Any) -> None:
        self.sim._live_processes.pop(id(self), None)
        self.succeed(value)
        if self._death_callbacks is not None:
            self._fire_death()

    def _finish_fail(self, exc: BaseException) -> None:
        self.sim._live_processes.pop(id(self), None)
        self.fail(exc)
        self._fire_death()

    def _fire_death(self) -> None:
        callbacks, self._death_callbacks = self._death_callbacks, None
        if callbacks:
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
        elif self._death_callbacks is None:
            self._death_callbacks = [fn]
        else:
            self._death_callbacks.append(fn)

    def kill(self, exc: "BaseException | None" = None) -> None:
        """Terminate the process now (fail-stop crash model).

        Unwinds the generator (``finally`` blocks run), fails the process's
        own event with ``exc`` (default :class:`ProcessKilled`), defuses the
        event it was blocked on so the later stale wakeup is harmless, and
        fires registered on-death cleanups.  Killing a finished process is a
        no-op; killing one that has not taken its first step closes the
        generator before its body runs.
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

    def close(self) -> None:
        """Discard a process that nothing will resume (the teardown of a
        finished job's daemons).

        Unlike :meth:`kill` this schedules nothing and leaves the process's
        own event pending: the generator is closed (``finally`` blocks
        run), the process leaves the simulator's live set, and the event
        it was parked on is abandoned so that no primitive hands it a unit
        or an item.
        """
        self.sim._live_processes.pop(id(self), None)
        waited, self._waiting_on = self._waiting_on, None
        if waited is not None:
            waited._abandoned = True
        self._gen.close()

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
            self._force(event)

        ev.add_callback(deliver)
        ev.fail(exc)

    def interrupt(self, reason: str = "") -> None:
        """Throw :class:`Interrupted` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        ev = Event(self.sim, name=f"{self.name}:interrupt")
        ev.add_callback(self._force)
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
