"""One happens-before model of a collective schedule, built two ways.

:class:`TraceModel` holds everything the registered checkers
(:mod:`repro.analysis.checkers`, :mod:`repro.analysis.deadlock`) consume:

- vector-clocked **steps** (:class:`Step`): one recorded action of one rank,
  with a snapshot of that rank's clock and the byte-range
  :class:`Access` es it makes;
- the **region table**: every KNEM registration as a :class:`Region` with
  its register step, its destroy step (a forced reclaim counts) and the copy
  steps that used it;
- driver-rejected ioctls, stored as ``fail`` steps;
- collective-board posts and reads;
- the **wait-for facts** of a wedged run: sends never drained, receives
  never matched, and the :class:`~repro.errors.DeadlockError` naming the
  blocked ranks.

Two builders fill it.  :meth:`TraceModel.ingest` replays a
:class:`~repro.simtime.trace.Tracer` record stream of one simulated
execution: the stream is totally ordered (the simulator is deterministic and
single-threaded) and each rank's records appear in its program order, so one
scan that ticks each rank's clock on its own records and joins the sender's
snapshot at every message-layer edge (``mpi.inject``/``mpi.send`` →
``mpi.recv``, ``mpi.fin_send`` → ``mpi.fin_recv``) yields a sound
happens-before relation for that execution.  The symbolic extractor
(:mod:`repro.analysis.static.schedules`) runs the real ``coll/`` builders
against stub drivers and records the same steps; its subclass adds only the
per-rank replay the DPOR explorer walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.analysis.vectorclock import VectorClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.coll.algorithms import DirectionSpec
    from repro.errors import DeadlockError
    from repro.mpi.runtime import Job
    from repro.simtime.trace import TraceRecord

__all__ = ["Access", "Step", "Region", "HealthEvent", "RankEvent",
           "TraceModel", "build_model", "intervals_overlap",
           "accesses_conflict"]

#: The only plain-copy label included in race analysis: a collective moving
#: a rank's own contribution.  FIFO/eager transport copies are excluded —
#: their slot reuse is serialized by untraced semaphores and would appear
#: as false write/write races — and ``knem``/``knem-dma`` copies are the
#: data movement of a ``knem.copy`` record already counted.
_TRACKED_COPY_LABEL = "coll-local"


def intervals_overlap(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    """True when the half-open byte ranges ``[a_start, a_end)`` and
    ``[b_start, b_end)`` share at least one byte."""
    return a_start < b_end and b_start < a_end


@dataclass(frozen=True)
class Access:
    """One byte-range access in an address space (symbolic or simulated).

    ``space`` names the backing object — a buffer id for memory, or a tuple
    key for non-byte shared state like the collective board.
    """

    space: object
    start: int
    end: int
    write: bool


def accesses_conflict(a: "tuple[Access, ...]", b: "tuple[Access, ...]") -> bool:
    """Do two access sets touch a common byte with at least one writer?"""
    for x in a:
        for y in b:
            if (x.write or y.write) and x.space == y.space \
                    and intervals_overlap(x.start, x.end, y.start, y.end):
                return True
    return False


@dataclass
class Step:
    """One recorded action of one rank with its vector-clock snapshot.

    ``index`` is the step's position in its builder's stream (the trace
    record index, or the extraction order).  ``rank`` and ``vc`` are
    ``None`` for trace records whose core no rank of the job is bound to.
    """

    index: int
    rank: Optional[int]
    kind: str
    vc: Optional[VectorClock]
    accesses: "tuple[Access, ...]" = ()
    info: "dict[str, Any]" = field(default_factory=dict)

    def precedes(self, other: "Step") -> bool:
        """Happens-before-or-equal: ``other``'s clock has seen this step."""
        return (self.vc is not None and other.vc is not None
                and self.vc.leq(other.vc))

    def describe(self) -> str:
        extra = ", ".join(f"{k}={v}" for k, v in self.info.items()
                          if k in ("dest", "src", "cookie", "nbytes", "tag"))
        return f"step {self.index} (rank {self.rank} {self.kind}" + \
            (f", {extra})" if extra else ")")


@dataclass
class Region:
    """Lifecycle of one registered KNEM region."""

    cookie: int
    owner_rank: Optional[int]
    buf: object
    offset: int
    length: int
    prot: int
    register: Step
    #: the deregistration, or the forced reclaim (a ``reclaim`` step)
    destroy: Optional[Step] = None
    uses: "list[Step]" = field(default_factory=list)
    label: str = ""

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass
class HealthEvent:
    """One ``knem.degrade`` / ``knem.requalify`` health transition."""

    index: int
    rank: Optional[int]
    kind: str                     # "degrade" | "requalify"
    op: str
    consecutive: int
    disqualified: bool


@dataclass
class RankEvent:
    """One process-level fault event (``rank.crash``/``rank.stall``) or a
    ``watchdog.timeout`` (rank is ``None`` for machine-wide events)."""

    index: int
    rank: Optional[int]
    kind: str                     # "crash" | "stall" | "timeout"
    op: str
    fields: "dict[str, Any]"


class TraceModel:
    """The happens-before model every checker runs over."""

    def __init__(self, nprocs: int, machine: str = "") -> None:
        self.nprocs = nprocs
        self.machine = machine
        self.steps: list[Step] = []
        self.regions: dict[int, Region] = {}
        #: collective-board posts (last post per key) and reads
        self.board_posts: dict[Any, Step] = {}
        self.board_gets: list[tuple[Any, Step]] = []
        #: KNEM health transitions (fault-injected degraded runs).
        self.health_events: list[HealthEvent] = []
        #: process-level fault events (crash/stall/watchdog), alongside
        #: ``health_events`` — a degraded-but-clean schedule shows these
        #: without any race/deadlock findings.
        self.rank_events: list[RankEvent] = []
        #: world ranks that died (fail-stop) during the run, in crash order.
        self.dead_ranks: list[int] = []
        #: send id -> (sender rank, dest rank) for sends the sender is still
        #: inside (a rendezvous never drained).
        self.outstanding_sends: dict[int, tuple[int, int]] = {}
        #: receive id -> (rank, source rank or None) for receive posts that
        #: never matched an incoming envelope.
        self.pending_recvs: dict[int, tuple[int, Optional[int]]] = {}
        #: set when the run wedged: names the blocked ranks.
        self.deadlock: Optional["DeadlockError"] = None
        #: the algorithm's declared direction contract, if any.
        self.direction_spec: Optional["DirectionSpec"] = None
        self.core_rank: dict[int, int] = {}
        self.clocks = [VectorClock(nprocs) for _ in range(nprocs)]
        #: hb token -> sender snapshot the matching receive joins.  Written
        #: by ``mpi.send`` (call site) and overwritten by ``mpi.inject``
        #: (envelope post — includes protocol work such as registration).
        self._msg_snap: dict[int, VectorClock] = {}
        self._fin_snap: dict[int, VectorClock] = {}

    # -- the builders' shared vocabulary ----------------------------------
    def add_step(self, kind: str, rank: Optional[int],
                 vc: Optional[VectorClock], accesses: "tuple[Access, ...]" = (),
                 info: "Optional[dict[str, Any]]" = None,
                 index: Optional[int] = None) -> Step:
        """Append one step (``index`` defaults to its position)."""
        step = Step(len(self.steps) if index is None else index, rank, kind,
                    vc, accesses, info or {})
        self.steps.append(step)
        return step

    def add_region(self, step: Step, cookie: int, buf: object, offset: int,
                   length: int, prot: int, label: str = "") -> Region:
        region = Region(cookie, step.rank, buf, offset, length, prot, step,
                        label=label)
        self.regions[cookie] = region
        return region

    @property
    def rejections(self) -> list[Step]:
        """Driver-rejected ioctls, fault-injected ones excluded."""
        return [s for s in self.steps
                if s.kind == "fail" and not s.info.get("injected")]

    def accesses_by_space(self) -> "dict[object, list[tuple[Step, Access]]]":
        spaces: "dict[object, list[tuple[Step, Access]]]" = {}
        for step in self.steps:
            for acc in step.accesses:
                spaces.setdefault(acc.space, []).append((step, acc))
        return spaces

    # -- trace ingest ------------------------------------------------------
    def ingest(self, records: "list[TraceRecord]") -> "TraceModel":
        """Scan a record stream once, building clocks, steps, and regions."""
        for index, rec in enumerate(records):
            handler = self._HANDLERS.get(rec.category)
            if handler is not None:
                handler(self, index, rec.fields)
        return self

    def _tick(self, rank: Optional[int]) -> Optional[VectorClock]:
        """Advance ``rank``'s clock for one attributed record; snapshot it."""
        if rank is None or not 0 <= rank < self.nprocs:
            return None
        vc = self.clocks[rank]
        vc.tick(rank)
        return vc.copy()

    def _join(self, rank: int, snap: Optional[VectorClock]) -> None:
        if snap is not None and 0 <= rank < self.nprocs:
            self.clocks[rank].join(snap)

    def _core_step(self, index: int, kind: str, f: dict[str, Any],
                   info: "dict[str, Any]") -> Step:
        """A step attributed through the record's ``core`` field."""
        rank = self.core_rank.get(f.get("core", -1))
        return self.add_step(kind, rank, self._tick(rank), info=info,
                             index=index)

    def _on_send(self, index: int, f: dict[str, Any]) -> None:
        rank = f["src"]
        snap = self._tick(rank)
        hb = f.get("hb", -1)
        if snap is not None and hb >= 0:
            self._msg_snap[hb] = snap
            self.outstanding_sends[hb] = (rank, f.get("dst", -1))

    def _on_inject(self, index: int, f: dict[str, Any]) -> None:
        snap = self._tick(f["src"])
        hb = f.get("hb", -1)
        if snap is not None and hb >= 0:
            self._msg_snap[hb] = snap

    def _on_send_done(self, index: int, f: dict[str, Any]) -> None:
        self._tick(f["src"])
        self.outstanding_sends.pop(f.get("hb", -1), None)

    def _on_recv_post(self, index: int, f: dict[str, Any]) -> None:
        rank = f["rank"]
        self._tick(rank)
        self.pending_recvs[f["req"]] = (rank, f.get("src"))

    def _on_recv(self, index: int, f: dict[str, Any]) -> None:
        rank = f["rank"]
        self._tick(rank)
        self._join(rank, self._msg_snap.get(f.get("hb", -1)))
        self.pending_recvs.pop(f.get("req", -1), None)

    def _on_fin_send(self, index: int, f: dict[str, Any]) -> None:
        snap = self._tick(f["rank"])
        if snap is not None:
            self._fin_snap[f["seq"]] = snap

    def _on_fin_recv(self, index: int, f: dict[str, Any]) -> None:
        rank = f["rank"]
        self._tick(rank)
        self._join(rank, self._fin_snap.get(f["seq"]))

    def _on_register(self, index: int, f: dict[str, Any]) -> None:
        step = self._core_step(index, "register", f, {"cookie": f["cookie"]})
        self.add_region(step, f["cookie"], f["buf"], f.get("offset", 0),
                        f["length"], f["prot"], label=f.get("buf_label", ""))

    def _on_deregister(self, index: int, f: dict[str, Any]) -> None:
        kind = "reclaim" if f.get("forced") else "destroy"
        step = self._core_step(index, kind, f, {"cookie": f["cookie"]})
        region = self.regions.get(f["cookie"])
        if region is not None:
            region.destroy = step

    def _on_knem_copy(self, index: int, f: dict[str, Any]) -> None:
        rank = self.core_rank.get(f.get("core", -1))
        snap = self._tick(rank)
        write, nbytes = bool(f["write"]), f["nbytes"]
        accesses: "tuple[Access, ...]" = ()
        if snap is not None and nbytes:
            region_start, local_start = f["region_start"], f["local_start"]
            # The region side moves in the copy's direction, the local side
            # the opposite way.
            accesses = (
                Access(f["region_buf"], region_start, region_start + nbytes,
                       write),
                Access(f["local_buf"], local_start, local_start + nbytes,
                       not write),
            )
        step = self.add_step("knem-copy", rank, snap, accesses, {
            "cookie": f["cookie"], "nbytes": nbytes, "write": write,
        }, index=index)
        region = self.regions.get(f["cookie"])
        if region is not None:
            region.uses.append(step)

    def _on_knem_fail(self, index: int, f: dict[str, Any]) -> None:
        self._core_step(index, "fail", f, dict(f))

    def _on_degrade(self, index: int, f: dict[str, Any]) -> None:
        rank = self.core_rank.get(f.get("core", -1))
        self._tick(rank)
        self.health_events.append(HealthEvent(
            index, rank, "degrade", f.get("op", "?"),
            f.get("consecutive", 0), bool(f.get("disqualified", False)),
        ))

    def _on_requalify(self, index: int, f: dict[str, Any]) -> None:
        rank = self.core_rank.get(f.get("core", -1))
        self._tick(rank)
        self.health_events.append(HealthEvent(
            index, rank, "requalify", f.get("op", "?"),
            f.get("after_failures", 0), False,
        ))

    def _on_rank_crash(self, index: int, f: dict[str, Any]) -> None:
        self._on_rank_stall(index, f, "crash")
        rank = f.get("rank")
        if rank is not None and rank not in self.dead_ranks:
            self.dead_ranks.append(rank)

    def _on_rank_stall(self, index: int, f: dict[str, Any],
                       kind: str = "stall") -> None:
        rank = f.get("rank")
        self._tick(rank)
        self.rank_events.append(RankEvent(index, rank, kind,
                                          f.get("op", ""), dict(f)))

    def _on_watchdog(self, index: int, f: dict[str, Any]) -> None:
        self.rank_events.append(RankEvent(index, None, "timeout", "",
                                          dict(f)))

    def _on_mem_copy(self, index: int, f: dict[str, Any]) -> None:
        if f.get("label", "") != _TRACKED_COPY_LABEL:
            return
        rank = self.core_rank.get(f.get("core", -1))
        snap = self._tick(rank)
        nbytes = f["nbytes"]
        if snap is None or not nbytes:
            return
        src, dst = f["src_off"], f["dst_off"]
        self.add_step("local-copy", rank, snap, (
            Access(f["src_buf"], src, src + nbytes, False),
            Access(f["dst_buf"], dst, dst + nbytes, True),
        ), {"nbytes": nbytes}, index=index)

    _HANDLERS: "dict[str, Callable[[TraceModel, int, dict[str, Any]], None]]" = {
        "mpi.send": _on_send,
        "mpi.inject": _on_inject,
        "mpi.send_done": _on_send_done,
        "mpi.recv_post": _on_recv_post,
        "mpi.recv": _on_recv,
        "mpi.fin_send": _on_fin_send,
        "mpi.fin_recv": _on_fin_recv,
        "knem.register": _on_register,
        "knem.deregister": _on_deregister,
        "knem.copy": _on_knem_copy,
        "knem.fail": _on_knem_fail,
        "knem.degrade": _on_degrade,
        "knem.requalify": _on_requalify,
        "rank.crash": _on_rank_crash,
        "rank.stall": _on_rank_stall,
        "watchdog.timeout": _on_watchdog,
        "copy": _on_mem_copy,
    }


def build_model(job: "Job", records: "list[TraceRecord] | None" = None,
                deadlock: "DeadlockError | None" = None,
                direction_spec: "DirectionSpec | None" = None) -> TraceModel:
    """Build a :class:`TraceModel` from a completed (or crashed) job.

    ``records`` defaults to the machine tracer's full stream; pass a slice
    when several runs share one machine (the pytest plugin does).
    """
    model = TraceModel(job.nprocs, machine=job.machine.spec.name)
    model.core_rank = {p.core: p.rank for p in job.procs}
    model.deadlock = deadlock
    model.direction_spec = direction_spec
    if records is None:
        records = job.machine.tracer.records
    model.ingest(records)
    return model
