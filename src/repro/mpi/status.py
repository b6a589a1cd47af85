"""Receive status and request objects."""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple, Optional

from repro.simtime.core import Event, Simulator

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


class Request:
    """Handle for a pending point-to-point operation (MPI_Request).

    ``event`` fires with the :class:`Status` (receives) or ``None`` (sends).
    ``wait()`` from process context::

        status = yield req.event
    """

    _ids = itertools.count(1)

    __slots__ = ("id", "event", "kind", "_status")

    def __init__(self, sim: Simulator, kind: str):
        self.id = next(Request._ids)
        self.event: Event = Event(sim, name=f"req{self.id}:{kind}")
        self.kind = kind
        self._status: Optional[Status] = None

    @property
    def complete(self) -> bool:
        return self.event.triggered

    @property
    def status(self) -> Optional[Status]:
        return self._status

    def _finish(self, status: Optional[Status] = None) -> None:
        self._status = status
        self.event.succeed(status)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.complete else "pending"
        return f"<Request#{self.id} {self.kind} {state}>"
