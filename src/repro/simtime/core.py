"""Event loop core: :class:`Event`, :class:`Timeout`, :class:`Simulator`.

Semantics follow the classic discrete-event pattern:

- An :class:`Event` is *pending* until someone calls :meth:`Event.succeed`
  or :meth:`Event.fail`; triggering enqueues it so its callbacks run at the
  current simulation time (events never run callbacks synchronously, which
  keeps process resumption ordering deterministic).
- The :class:`Simulator` dispatches events in ``(time, creation)`` order,
  so two events due at the same instant are processed in the order they
  were scheduled.
- Failures (:meth:`Event.fail`) propagate into any process waiting on the
  event; an unwaited failure surfaces when the event is processed, so errors
  cannot be silently dropped.

The queue has two tiers.  Events due at the instant that creates them
(every ``succeed``/``fail``, and every :class:`Timeout` whose
``now + delay == now``) go on a FIFO deque, ``_ready``; later events go on
a binary heap, ``_heap``, of ``(time, seq, event)`` tuples.  A heap entry
due now was created at an earlier instant, so it precedes everything in
the FIFO: each instant dispatches its heap entries first, in ``seq``
order, then the FIFO in append order — exactly the order of one heap
holding every event.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.errors import DeadlockError, SimulationError

__all__ = ["PENDING", "Event", "Timeout", "Simulator"]


class _Pending:
    """Sentinel for "event not yet triggered"."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _Pending()

#: Shared empty callbacks list for freshly created events.  Most events
#: never receive a callback (their single waiter rides the ``_pwait``
#: slot), so allocating a list per event is pure overhead.  Every append
#: site must treat this sentinel as copy-on-write: replace it with a fresh
#: one-element list instead of mutating it (see :meth:`Event.add_callback`
#: and ``Process._resume``).
_NO_CBS: list = []


class Event:
    """A one-shot waitable with a value or an exception.

    Callbacks are invoked with the event itself when the simulator processes
    the event, in registration order.  ``_pwait`` is a dedicated slot for
    the common case of exactly one waiter that is a simulated process: the
    dispatch loops fire it *before* the callbacks list (a process re-arms
    into ``_pwait`` only while the list is empty, so this is registration
    order).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused",
                 "_abandoned", "_pwait", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = _NO_CBS
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        #: set when the process that was waiting on this event is forcibly
        #: unwound (kill/throw) while the event is still queued inside a
        #: primitive; Semaphore/Channel skip abandoned waiters at hand-off
        #: so the token or item is not silently lost
        self._abandoned = False
        #: the single waiting Process, when it is the first registration
        self._pwait = None
        self.name = name

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event left the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception (once triggered)."""
        if self._value is PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering ------------------------------------------------------
    # A trigger is the only way onto the queue, and a second trigger is
    # refused, so an event can never be queued twice.  The push onto the
    # current-instant FIFO is inlined (here, in fail and in Timeout): a
    # method call per event is measurable at sweep scale.
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and enqueue callback processing."""
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self._ok = True
        sim = self.sim
        ready = sim._ready
        ready.append(self)
        n = len(ready) + len(sim._heap)
        if n > sim.peak_heap:
            sim.peak_heap = n
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed; waiters will see ``exc`` re-raised."""
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = exc
        self._ok = False
        sim = self.sim
        ready = sim._ready
        ready.append(self)
        n = len(ready) + len(sim._heap)
        if n > sim.peak_heap:
            sim.peak_heap = n
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)``; runs immediately-ish if already processed."""
        if self.callbacks is None:
            # Already processed: schedule a fresh zero-delay dispatch so the
            # caller still gets asynchronous (deterministic) notification.
            # ``fn`` always receives the *original* event, so late waiters
            # observe the same value/failure early waiters did.
            proxy = Event(self.sim, name=f"{getattr(self, 'name', '')}:late")
            proxy.callbacks = [lambda _e: fn(self)]
            if self._ok:
                proxy.succeed(self._value)
            else:
                # The failure already surfaced (or was defused) when the
                # original was processed; the proxy's copy is pre-defused so
                # it is not reported a second time, but ``fn`` still sees a
                # failed event and can re-raise it into its process.
                proxy._defused = True
                proxy.fail(self._value)
        elif self.callbacks:
            self.callbacks.append(fn)
        else:
            # Empty: the shared _NO_CBS sentinel — copy-on-write.
            self.callbacks = [fn]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        label = getattr(self, "name", "") or self.__class__.__name__
        return f"<{label} {state} at t={self.sim.now:.9f}>"


class Timeout(Event):
    """An event that succeeds ``delay`` seconds after creation.

    The constructor is the hottest allocation site of a sweep (every
    simulated delay is one Timeout), so it inlines ``Event.__init__`` and
    the queue push, and formats no name — diagnostics fall back to the
    class name instead.  A zero-delay Timeout whose ``_pwait`` is a
    process is also how the event core wakes a process without a waited
    event of its own: a process's first step, and a wait on an event that
    was already processed successfully (see ``Process``).
    """

    __slots__ = ("delay",)

    #: Class-level constant shadowing the inherited ``_ok`` slot: a Timeout
    #: is born triggered-successful and can never be failed (``succeed``/
    #: ``fail`` raise "already triggered" before their ``_ok`` write), so
    #: the per-instance store is pure overhead in the hottest allocation
    #: site of a sweep.  The shadowing also makes any future write attempt
    #: fail loudly (AttributeError) instead of silently diverging.
    _ok = True

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = ""):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Inlined Event.__init__: a Timeout is born triggered-successful.
        # ``_defused``/``_abandoned`` stay deliberately unset: ``_defused``
        # is only read behind an ``_ok is False`` guard, and ``_abandoned``
        # is only read on the waiter events the primitives create
        # themselves.  Writes to the unset slots (kill/throw defusal) still
        # work; a read would raise loudly instead of masking a broken
        # assumption.
        self.sim = sim
        self.callbacks = _NO_CBS
        self._value = value
        self._pwait = None
        self.name = name
        self.delay = delay
        now = sim.now
        t = now + delay
        heap = sim._heap
        ready = sim._ready
        if t == now:
            ready.append(self)
        else:
            sim._seq = seq = sim._seq + 1
            heappush(heap, (t, seq, self))
        n = len(ready) + len(heap)
        if n > sim.peak_heap:
            sim.peak_heap = n


class Simulator:
    """Deterministic discrete-event scheduler.

    >>> sim = Simulator()
    >>> done = []
    >>> def prog():
    ...     yield Timeout(sim, 1.5)
    ...     done.append(sim.now)
    >>> _ = sim.process(prog())
    >>> sim.run()
    >>> done
    [1.5]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: events due later than ``now``, as ``(time, seq, event)``
        self._heap: list[tuple[float, int, Event]] = []
        #: events due at ``now``, in the order they were triggered
        self._ready: deque[Event] = deque()
        self._seq = 0
        # Live processes (for deadlock diagnostics); maintained by Process.
        self._live_processes: dict[int, Any] = {}
        #: events popped and dispatched so far (maintained by step()/run())
        self.events_processed = 0
        #: generator resumptions so far (maintained by Process._resume)
        self.process_resumes = 0
        #: high-water mark of the event queue (both tiers)
        self.peak_heap = 0

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` simulated seconds; returns the event."""
        ev = Timeout(self, delay, name="schedule")
        ev.callbacks = [lambda _e: fn()]
        return ev

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered event bound to this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a timeout event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "",
                daemon: bool = False, owner: Optional[int] = None) -> "Process":
        """Start a generator as a simulated process (see :class:`Process`).

        ``daemon`` processes (e.g. per-rank progress engines) may still be
        blocked when the event queue drains without that counting as a
        deadlock.  ``owner`` tags the process with the world rank it acts
        for, so a rank crash can take its in-flight protocol children down
        with it.
        """
        return Process(self, gen, name=name, daemon=daemon, owner=owner)

    def _next_time(self) -> Optional[float]:
        """Earliest queued event time (``None`` when the queue is empty)."""
        if self._ready:
            return self.now
        heap = self._heap
        return heap[0][0] if heap else None

    # -- main loop ---------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event (advancing ``now``)."""
        # Heap entries due now go first: they were created at an earlier
        # instant, so their sequence numbers are below anything in the FIFO.
        heap = self._heap
        if heap and heap[0][0] <= self.now:
            event = heappop(heap)[2]
        elif self._ready:
            event = self._ready.popleft()
        elif heap:
            t, _seq, event = heappop(heap)
            self.now = t
        else:
            raise SimulationError("step() on an empty event queue")
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        pw = event._pwait
        if pw is not None:
            event._pwait = None
            pw._resume(event)
        for cb in callbacks:
            cb(event)
        if event._ok is False and not event._defused:
            # A failure nobody waited on: surface it instead of losing it.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``now`` would exceed ``until``.

        Raises :class:`~repro.errors.DeadlockError` if the queue drains while
        simulated processes are still blocked (no ``until`` given).
        """
        if until is not None:
            if until < self.now:
                raise SimulationError(
                    f"run(until={until}) is in the past (now={self.now})")
            while True:
                t = self._next_time()
                if t is None or t > until:
                    break
                self.step()
            self.now = until
            return
        # Hot loop: step() inlined, with the queue bound to locals.  An
        # instant ends when neither tier holds an event due at it; only
        # then does ``now`` advance to the heap's top.  This is where whole
        # sweeps spend their time; see benchmarks/bench_simcore.py.
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        now = self.now
        dispatched = 0
        try:
            while True:
                if heap and heap[0][0] <= now:
                    event = heappop(heap)[2]
                elif ready:
                    event = popleft()
                elif heap:
                    self.now = now = heap[0][0]
                    continue
                else:
                    break
                dispatched += 1
                callbacks, event.callbacks = event.callbacks, None
                pw = event._pwait
                if pw is not None:
                    event._pwait = None
                    pw._resume(event)
                for cb in callbacks:
                    cb(event)
                if event._ok is False and not event._defused:
                    # A failure nobody waited on: surface it, don't lose it.
                    raise event._value
        finally:
            self.events_processed += dispatched
        blocked_procs = sorted(
            (p for p in self._live_processes.values() if not p.daemon),
            key=lambda p: p.name,
        )
        if blocked_procs:
            # Deterministic diagnostics: names are sorted, every process
            # reports the event it is parked on, and the count of distinct
            # pending events is included (see repro.analysis.deadlock for
            # wait-for-graph reconstruction on top of this).
            waiting = {}
            pending_ids = set()
            for p in blocked_procs:
                target = p.waiting_on
                if target is None:
                    waiting[p.name] = ""
                else:
                    waiting[p.name] = (getattr(target, "name", "")
                                       or type(target).__name__)
                    pending_ids.add(id(target))
            raise DeadlockError(
                [p.name for p in blocked_procs],
                waiting=waiting,
                pending_events=len(pending_ids),
            )

    def run_horizon(self, horizon: float) -> None:
        """Process every event with time <= ``horizon``; stop without
        advancing ``now`` past the last processed event.

        This is the watchdog primitive behind ``Job.run(deadline=)``: unlike
        :meth:`run` with ``until`` it leaves ``now`` at the last dispatched
        instant, so an early-completing run does not jump to the deadline.
        """
        if horizon < self.now:
            raise SimulationError(
                f"run_horizon({horizon}) is in the past (now={self.now})")
        while True:
            t = self._next_time()
            if t is None or t > horizon:
                return
            self.step()

    @property
    def queue_size(self) -> int:
        return len(self._heap) + len(self._ready)

    @property
    def stats(self) -> dict[str, int]:
        """Cheap always-on counters (``repro.bench --verbose`` prints them)."""
        return {
            "events_processed": self.events_processed,
            "process_resumes": self.process_resumes,
            "peak_heap": self.peak_heap,
        }


# Bound at the end: process.py subclasses Event, so it imports this module
# first (the package __init__ guarantees that order).
from repro.simtime.process import Process  # noqa: E402
