"""Filesystem fault injection around checkpoint-journal appends.

The journal is the one place the sweep substrate touches durable state, so
it is the one place disk failure modes matter: ``EIO`` (a failing device),
``ENOSPC`` (a full volume), and the nastiest of the three, a **short
write** — part of one record reaches the file and then the write errors,
leaving a torn final line exactly like a crash mid-append.

A :class:`FaultyFile` wraps the append-mode journal handle (installed via
:func:`repro.bench.harness.journal_wrapper`) and injects one such
fault after a configured number of successful appends.  The contract the
campaigns verify: the sweep *degrades to no-journaling* (the run still
completes and stays correct; only resumability of later cells is lost),
and the journal on disk is still recoverable — at worst a torn tail.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import IO

from repro.errors import BenchmarkError

__all__ = ["FsFaultRule", "FaultyFile", "FS_FAULT_MODES"]

#: injectable failure modes for one journal append
FS_FAULT_MODES = ("eio", "enospc", "short")

_ERRNOS = {"eio": errno.EIO, "enospc": errno.ENOSPC, "short": errno.EIO}


@dataclass(frozen=True)
class FsFaultRule:
    """Fail the ``after_writes``-th append (0 = the very first).

    ``short`` writes half of the record's bytes before erroring, producing
    a torn final line; ``eio``/``enospc`` fail cleanly with the matching
    errno.  One rule fires once — after the failure the harness stops
    journaling, so there is nothing left to inject into.
    """

    after_writes: int
    mode: str = "eio"

    def __post_init__(self) -> None:
        if self.mode not in FS_FAULT_MODES:
            raise BenchmarkError(
                f"unknown fs fault mode {self.mode!r}; "
                f"known: {FS_FAULT_MODES}")
        if self.after_writes < 0:
            raise BenchmarkError("after_writes must be >= 0")


class FaultyFile:
    """File-object proxy that injects one :class:`FsFaultRule` on write."""

    def __init__(self, fh: IO[str], rule: FsFaultRule):
        self._fh = fh
        self._rule = rule
        self._writes = 0
        #: set once the fault fired (campaign reports read this)
        self.fired = False

    def write(self, data: str) -> int:
        if not self.fired and self._writes >= self._rule.after_writes:
            self.fired = True
            if self._rule.mode == "short":
                # Half the record lands, then the device gives up: the
                # torn-tail case the journal format must absorb.
                self._fh.write(data[: len(data) // 2])
                self._fh.flush()
            raise OSError(_ERRNOS[self._rule.mode],
                          f"injected fs fault ({self._rule.mode})")
        self._writes += 1
        return self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()

    def fileno(self) -> int:
        return self._fh.fileno()

    def close(self) -> None:
        self._fh.close()

    @property
    def closed(self) -> bool:  # pragma: no cover - debug convenience
        return self._fh.closed
