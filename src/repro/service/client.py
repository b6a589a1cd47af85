"""Blocking client of the sweep service.

The client side of the scheduler/store/transport split: it owns no
cache and no pool — it serializes a sweep request, then yields each
per-cell result as the server streams it back, in completion order.
:func:`repro.bench.harness.run_sweep` consumes exactly this stream on
its ``service=`` path and journals/assembles results the same way it
does for locally computed cells, which is what keeps served sweeps
byte-identical to in-process ones.

One sweep = one connection: reconnecting per call makes the client
trivially robust to server restarts between sweeps (the chaos
service-restart dimension kills the server mid-campaign and expects the
next sweep against a fresh one to succeed and to reuse its durable
cache).
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.bench.chunking import CellAborted
from repro.bench.imb import CellStats, ImbSettings
from repro.errors import BenchmarkError
from repro.mpi.stacks import Stack
from repro.service import protocol

__all__ = ["CellResult", "ServiceClient"]

#: seconds to wait for the TCP/unix connect (not for results — cells may
#: legitimately take long; the stream itself has no read timeout)
CONNECT_TIMEOUT = 10.0


@dataclass
class CellResult:
    """One served sweep cell, as the harness consumes it."""

    key: str                    # "stack|size" label, as journaled
    t: Optional[float]          # measured seconds (None when aborted)
    stats: Optional[CellStats]  # simulator counters (None on cache hits)
    cached: bool                # answered from the server's result cache
    aborted: Optional[CellAborted] = None


class ServiceClient:
    """Connects to a sweep server for one or more sweep requests."""

    def __init__(self, address: str):
        self.address = address
        self._kind = protocol.parse_address(address)
        self._next_id = 0

    # -- plumbing ----------------------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            if self._kind[0] == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(CONNECT_TIMEOUT)
                sock.connect(self._kind[1])
            else:
                sock = socket.create_connection(
                    (self._kind[1], self._kind[2]), timeout=CONNECT_TIMEOUT)
        except OSError as err:
            raise BenchmarkError(
                f"cannot reach sweep server at {self.address}: {err}"
            ) from err
        sock.settimeout(None)   # result stream: cells may take long
        return sock

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Nothing persistent to release (one connection per request)."""

    # -- requests ----------------------------------------------------------

    def ping(self) -> dict:
        """Server + store + pool counters (raises if unreachable)."""
        sock = self._connect()
        try:
            with sock.makefile("rwb") as fh:
                fh.write(protocol.format_frame({"op": "ping"}))
                fh.flush()
                for frame in protocol.read_frames(fh):
                    if frame["op"] == "pong":
                        return frame["counters"]
                    raise BenchmarkError(
                        f"sweep server error: {frame.get('message')}")
        finally:
            sock.close()
        raise BenchmarkError(
            f"sweep server at {self.address} closed the stream mid-ping")

    def sweep(self, machine: str, operation: str, nprocs: int,
              settings: ImbSettings,
              cells: Sequence[tuple[Stack, int]]) -> Iterator[CellResult]:
        """Yield a :class:`CellResult` per requested cell, completion order.

        Raises typed :class:`~repro.errors.BenchmarkError` when the
        server reports a failed cell or the stream ends before the
        ``end`` frame (server died mid-sweep) — the harness then leaves
        the journal resumable, exactly like a killed local sweep.
        """
        self._next_id += 1
        req = {
            "op": "sweep",
            "id": self._next_id,
            "machine": machine,
            "operation": operation,
            "nprocs": nprocs,
            "settings": protocol.encode_settings(settings),
            **protocol.encode_cells(cells),
        }
        sock = self._connect()
        try:
            with sock.makefile("rwb") as fh:
                fh.write(protocol.format_frame(req))
                fh.flush()
                done = False
                for frame in protocol.read_frames(fh):
                    op = frame["op"]
                    if op == "cell":
                        yield CellResult(
                            key=frame["key"], t=frame["t"],
                            stats=protocol.decode_stats(frame["stats"]),
                            cached=bool(frame["cached"]))
                    elif op == "abort":
                        yield CellResult(
                            key=frame["key"], t=None, stats=None,
                            cached=False,
                            aborted=CellAborted(
                                cell=frame["key"],
                                deaths=frame["deaths"],
                                reason=frame["reason"]))
                    elif op == "end":
                        done = True
                        break
                    elif op == "cell_error":
                        raise BenchmarkError(
                            f"sweep server failed cell {frame['key']}: "
                            f"{frame['message']}")
                    elif op == "error":
                        raise BenchmarkError(
                            f"sweep server error: {frame.get('message')}")
                    else:
                        raise protocol.ProtocolError(
                            f"unexpected frame op {op!r}")
                if not done:
                    raise BenchmarkError(
                        f"sweep server at {self.address} closed the "
                        f"stream mid-sweep; re-run to resume from the "
                        f"journal")
        finally:
            sock.close()
