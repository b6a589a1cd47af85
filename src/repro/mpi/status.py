"""Receive status and request objects."""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple, Optional

from repro.errors import ProcessKilled, RankCrashed, RankFailed
from repro.simtime.core import _NO_CBS, PENDING, Event, Simulator

__all__ = ["Status", "Request"]


class Status(NamedTuple):
    """Completion information of a receive (MPI_Status).

    ``payload`` carries the Python object of an object-mode message
    (:meth:`~repro.mpi.communicator.Comm.send_obj`), ``None`` for buffer
    messages.  Immutable, and a tuple so that building one per received
    message costs one allocation.
    """

    source: int
    tag: Any
    nbytes: int
    payload: Any = None


class Request(Event):
    """Handle for a pending point-to-point operation (MPI_Request).

    The request is itself the event that completes it, with the
    :class:`Status` (receives) or ``None`` (sends).  ``wait()`` from
    process context::

        status = yield req

    ``req.event`` is the same object, kept so that code written against
    a request/event pair (the collectives, which also run on the static
    verifier's stub requests) need not care.
    """

    _ids = itertools.count(1)

    __slots__ = ("id", "kind")

    def __init__(self, sim: Simulator, kind: str):
        # Inlined Event.__init__ (one request per simulated message); the
        # name is formatted only when a diagnostic reads it.
        self.sim = sim
        self.callbacks = _NO_CBS
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._abandoned = False
        self._pwait = None
        self.id = next(Request._ids)
        self.kind = kind

    @property
    def name(self) -> str:
        return f"req{self.id}:{self.kind}"

    @property
    def event(self) -> "Request":
        return self

    @property
    def complete(self) -> bool:
        return self._value is not PENDING

    @property
    def status(self) -> Optional[Status]:
        return self._value if self._ok else None

    def follow(self, child: Event) -> None:
        """Complete with the outcome of ``child``, the process running the
        operation (an ``isend`` protocol, a non-blocking collective).

        Register as ``child``'s callback.  A crash-path failure may go
        unobserved (the program waiting on this request may itself be dead
        or aborted), so it is defused rather than left to abort the whole
        simulation when the request is processed.
        """
        if child._ok:
            self.succeed(None)
            return
        exc = child._value
        self.fail(exc)
        if isinstance(exc, (RankCrashed, RankFailed, ProcessKilled)):
            self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.complete else "pending"
        return f"<Request#{self.id} {self.kind} {state}>"
