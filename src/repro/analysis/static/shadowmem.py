"""Byte-interval shadow memory: the runtime "KNEM-San" sanitizer.

:class:`KnemSanitizer` / :class:`FifoSanitizer` hook into
:class:`repro.kernel.knem.KnemDriver` and
:class:`repro.kernel.shm.FifoSegment` behind ``is not None`` guards, so a
machine with no sanitizer armed pays exactly one attribute test per kernel
call (the same zero-cost pattern the fault-injection plan uses).  They check
timing facts the happens-before model of :mod:`repro.analysis.model` does
not hold: which copy windows are in flight at one instant, and which state
each FIFO slot is in.

The sanitizer tracks *ownership intervals*: every in-flight KNEM copy holds
a byte window on the region's backing buffer until its completion event
fires; every FIFO slot walks a free → held → published → free state
machine.  Overlapping windows with a writer, destruction with copies still
in flight, driver-rejected ioctls, and slot-protocol violations all become
typed :class:`~repro.analysis.findings.Finding` objects naming the
offending schedule step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.analysis.findings import ERROR, WARNING, Finding
from repro.analysis.model import intervals_overlap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.knem import KnemRegion
    from repro.kernel.shm import FifoSegment
    from repro.simtime.core import Event

__all__ = [
    "KnemSanitizer",
    "FifoSanitizer",
    "SingleCopySanitizer",
]


@dataclass
class _CopyWindow:
    """One in-flight KNEM copy's claim on a backing buffer."""

    seq: int
    cookie: int
    core: int
    buf: int
    start: int
    end: int
    write: bool
    live: bool = True

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        return (f"step {self.seq}: core {self.core} {kind} "
                f"[{self.start}, {self.end}) of buf {self.buf} "
                f"via cookie {self.cookie:#x}")


class KnemSanitizer:
    """Shadow-memory tracking for the KNEM driver (one per machine)."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self._seq = itertools.count(1)
        #: live windows per backing buffer id
        self._windows: dict[int, list[_CopyWindow]] = {}
        #: cookie -> number of in-flight copies
        self._inflight: dict[int, int] = {}

    # -- hooks called from kernel/knem.py (guarded by ``is not None``) ----
    def note_register(self, core: int, region: "KnemRegion") -> None:
        self._inflight[region.cookie] = 0
        if region.offset < 0 or region.offset + region.length > region.buffer.size:
            self._finding(ERROR, "out-of-bounds",
                          f"region {region.cookie:#x} covers "
                          f"[{region.offset}, {region.offset + region.length}) "
                          f"outside buf {region.buffer.id} "
                          f"of size {region.buffer.size}", core=core)

    def note_copy(self, core: int, region: "KnemRegion", region_offset: int,
                  nbytes: int, write: bool, done: "Event") -> None:
        start = region.offset + region_offset
        window = _CopyWindow(seq=next(self._seq), cookie=region.cookie,
                             core=core, buf=region.buffer.id,
                             start=start, end=start + nbytes, write=write)
        peers = self._windows.setdefault(window.buf, [])
        for other in peers:
            if not other.live or other.core == core:
                continue
            if not (window.write or other.write):
                continue
            if intervals_overlap(window.start, window.end,
                                 other.start, other.end):
                self._finding(
                    ERROR, "concurrent-overlap",
                    f"overlapping single-copy windows with a writer: "
                    f"{window.describe()} vs {other.describe()}",
                    core=core,
                    details={"cookie": window.cookie, "buf": window.buf,
                             "steps": (other.seq, window.seq)})
        peers.append(window)
        self._inflight[region.cookie] = self._inflight.get(region.cookie, 0) + 1
        done.add_callback(lambda _ev: self._retire(window))

    def note_destroy(self, core: int, region: "KnemRegion",
                     forced: bool = False) -> None:
        pending = self._inflight.pop(region.cookie, 0)
        if pending:
            windows = [w for w in self._windows.get(region.buffer.id, ())
                       if w.live and w.cookie == region.cookie]
            how = "reclaimed" if forced else "destroyed"
            self._finding(
                ERROR, "destroy-during-copy",
                f"cookie {region.cookie:#x} {how} by core {core} with "
                f"{pending} copy window(s) still in flight: "
                + "; ".join(w.describe() for w in windows),
                core=core,
                details={"cookie": region.cookie, "pending": pending,
                         "forced": forced})
        # the region is gone: stale windows must not raise further overlaps
        for w in self._windows.get(region.buffer.id, ()):
            if w.cookie == region.cookie:
                w.live = False

    def note_fail(self, core: int, cookie: int, op: str, error: str,
                  nbytes: int = 0, write: bool = False) -> None:
        if "FaultInjected" in error:
            return  # injected faults are the fault plan's business
        category = {
            "KnemInvalidCookie": "use-after-invalidate",
            "KnemPermissionError": "direction-violation",
            "KnemBoundsError": "out-of-bounds",
        }.get(error, "driver-error")
        kind = "write" if write else "read"
        self._finding(ERROR, category,
                      f"driver rejected {op} ({kind}, {nbytes} B) by core "
                      f"{core} on cookie {cookie:#x}: {error}",
                      core=core, details={"cookie": cookie, "op": op,
                                          "error": error})

    # -- internals --------------------------------------------------------
    def _retire(self, window: _CopyWindow) -> None:
        window.live = False
        count = self._inflight.get(window.cookie)
        if count:
            self._inflight[window.cookie] = count - 1
        peers = self._windows.get(window.buf)
        if peers is not None and len(peers) > 64:
            peers[:] = [w for w in peers if w.live]

    def _finding(self, severity: str, category: str, message: str,
                 core: Optional[int] = None,
                 details: "Optional[dict[str, object]]" = None) -> None:
        self.findings.append(Finding(
            checker="knemsan", category=category, severity=severity,
            message=message, rank=core,
            details=dict(details) if details else {}))


#: FIFO slot protocol states.
_FREE, _HELD, _PUBLISHED = "free", "held", "published"


class FifoSanitizer:
    """Slot-protocol state machine for the copy-in/copy-out FIFOs."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        #: (fifo name, slot) -> state
        self._state: dict[tuple[str, int], str] = {}

    def note_acquire(self, fifo: "FifoSegment", slot: int) -> None:
        key = (fifo.name, slot)
        state = self._state.get(key, _FREE)
        if state != _FREE:
            self._finding(ERROR, "double-acquire",
                          f"slot {slot} of {fifo.name} acquired while {state}")
        self._state[key] = _HELD

    def note_publish(self, fifo: "FifoSegment", slot: int, nbytes: int) -> None:
        key = (fifo.name, slot)
        state = self._state.get(key, _FREE)
        if state == _PUBLISHED:
            self._finding(ERROR, "double-publish",
                          f"slot {slot} of {fifo.name} published twice")
        elif state == _FREE:
            # publishing without a tracked acquire: tolerated (the sanitizer
            # may have been armed mid-run) but the fill must still fit.
            self._finding(WARNING, "publish-unheld",
                          f"slot {slot} of {fifo.name} published without a "
                          f"tracked acquire")
        if nbytes > fifo.fragment_size:
            self._finding(ERROR, "fragment-overflow",
                          f"{nbytes} B published into slot {slot} of "
                          f"{fifo.name} (fragment size "
                          f"{fifo.fragment_size} B)")
        self._state[key] = _PUBLISHED

    def note_release(self, fifo: "FifoSegment", slot: int) -> None:
        key = (fifo.name, slot)
        if self._state.get(key, _FREE) != _PUBLISHED:
            self._finding(ERROR, "release-unpublished",
                          f"slot {slot} of {fifo.name} released while "
                          f"{self._state.get(key, _FREE)}")
        self._state[key] = _FREE

    def note_reclaim(self, fifo: "FifoSegment") -> None:
        for key in [k for k in self._state if k[0] == fifo.name]:
            del self._state[key]

    def _finding(self, severity: str, category: str, message: str) -> None:
        self.findings.append(Finding(checker="fifosan", category=category,
                                     severity=severity, message=message))


@dataclass
class SingleCopySanitizer:
    """The machine-level sanitizer armed via ``Machine.arm_sanitizer``."""

    knem: KnemSanitizer = field(default_factory=KnemSanitizer)
    fifo: FifoSanitizer = field(default_factory=FifoSanitizer)

    @property
    def findings(self) -> list[Finding]:
        return list(self.knem.findings) + list(self.fifo.findings)

    @property
    def clean(self) -> bool:
        return not self.findings
