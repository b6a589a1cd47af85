"""Symbolic extraction and verification of collective schedules.

The schedule builders under ``repro/coll`` are generator functions that
describe *what* a collective does — who registers which byte range, who
copies what through which cookie, who waits on whom — while the simulator
only supplies *when*.  This module runs the **real, unmodified** builders
against symbolic stand-ins for the machine substrate (no
:class:`~repro.simtime.core.Simulator` instance is ever created) and builds
the same happens-before model a traced run yields
(:class:`~repro.analysis.model.TraceModel`): per-rank vector-clocked steps,
cookie lifecycles, byte-range accesses, driver-rejected ioctls, board
posts and reads, and — when the canonical execution wedges — the wait-for
facts.  :class:`ScheduleModel` adds the per-rank replay the DPOR explorer
walks.

:func:`verify_model` runs the registered checker set
(:mod:`repro.analysis.checkers`) over the model, then explores its
interleavings (:mod:`repro.analysis.static.interleave`).  The checks hold
for **all** interleavings of the schedule, not just the canonical
extraction order, because of two properties of the repro's collectives:
message matching is deterministic (every recv names source and a
phase-scoped tag), so there is exactly one match graph and hence one
happens-before relation; and an HB-unordered conflicting pair implies a
real interleaving that reorders it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.analysis.findings import ERROR, Finding, run_checkers
from repro.analysis.model import Access, Region, Step, TraceModel
from repro.analysis.static.interleave import ExploreResult, Op, explore_model
from repro.analysis.vectorclock import VectorClock
from repro.coll.algorithms import (
    DirectionSpec,
    exported_schedules,
    get_schedule,
)
from repro.errors import (
    DeadlockError,
    HardwareConfigError,
    KnemBoundsError,
    KnemInvalidCookie,
    KnemPermissionError,
)
from repro.hardware.machines import get_machine
from repro.hardware.spec import MachineSpec
from repro.kernel.costs import KernelCosts
from repro.kernel.knem import PROT_READ, PROT_WRITE
from repro.topology.binding import bind_ranks
from repro.units import KiB

__all__ = [
    "ScheduleModel",
    "VerifyResult",
    "extract_model",
    "verify_model",
    "verify_schedule",
    "verify_registry",
    "component_stack",
]

_MAX_STEPS = 500_000


class ScheduleModel(TraceModel):
    """The extracted happens-before model of one collective schedule.

    Beyond the shared model it carries the per-rank op sequences the DPOR
    explorer replays, the extraction's own findings (truncated messages,
    ranks that raised) and ``error`` when extraction was cut short.
    """

    def __init__(self, nprocs: int, machine: str = "") -> None:
        super().__init__(nprocs, machine)
        self.replay: "list[list[Op]]" = [[] for _ in range(nprocs)]
        self.findings: "list[Finding]" = []
        self.error = ""


# ---------------------------------------------------------------------------
# symbolic substrate
# ---------------------------------------------------------------------------

class _Ready:
    """An immediately-completed pseudo event (timeouts, local copies)."""

    __slots__ = ("value",)

    def __init__(self, value: Any = None):
        self.value = value


class SymEvent:
    """A blocking point in a symbolic schedule (recv delivery or fin)."""

    __slots__ = ("triggered", "value", "join_vc", "ref")

    def __init__(self, ref: "Optional[tuple[Any, ...]]" = None):
        self.triggered = False
        self.value: Any = None
        self.join_vc: Optional[VectorClock] = None
        self.ref = ref

    def succeed(self, value: Any = None,
                join_vc: Optional[VectorClock] = None) -> None:
        self.triggered = True
        self.value = value
        self.join_vc = join_vc


class SymRequest:
    __slots__ = ("event",)

    def __init__(self, event: SymEvent):
        self.event = event


@dataclass(frozen=True)
class SymStatus:
    source: int
    tag: Any
    nbytes: int
    payload: Any = None


class SymBuffer:
    """A symbolic buffer: an address space with a size and no bytes."""

    __slots__ = ("id", "size", "label", "rank", "backed", "data", "array")

    def __init__(self, buf_id: int, size: int, label: str, rank: int):
        self.id = buf_id
        self.size = size
        self.label = label
        self.rank = rank
        self.backed = False  # keeps reduction combines symbolic
        self.data = None
        self.array = None

    def check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise KnemBoundsError(
                f"[{offset}, {offset + nbytes}) outside buffer "
                f"{self.label or self.id} of size {self.size}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SymBuffer #{self.id} {self.label} {self.size}B r{self.rank}>"


class _SymHealth:
    """Stand-in for :class:`repro.faults.health.KnemHealth` (never trips)."""

    def __init__(self) -> None:
        self.fail_limit = 8
        self.disqualified = False

    def note_success(self) -> None:
        pass

    def note_failure(self, *_args: Any) -> None:
        pass


@dataclass
class _Chan:
    queue: "deque[_Envelope]" = field(default_factory=deque)
    waiting: "deque[_RecvPost]" = field(default_factory=deque)
    sends: int = 0
    recvs: int = 0


@dataclass
class _Envelope:
    payload: Any
    nbytes: int
    rendezvous: bool
    is_obj: bool
    send: Step
    event: SymEvent


@dataclass
class _RecvPost:
    rank: int
    req: SymRequest
    post: Step
    is_obj: bool
    buf: Optional[SymBuffer] = None
    offset: int = 0
    nbytes: int = 0


#: matches ``repro.mpi.pml.OBJECT_NBYTES`` (control messages are tiny)
_OBJECT_NBYTES = 8


class SymKnem:
    """Symbolic KNEM driver: records lifecycle steps, mimics ioctl checks.

    An ioctl the real driver would reject is recorded as a ``fail`` step
    (the checkers turn it into a finding) and raised like the driver does.
    """

    def __init__(self, ex: "_Extractor"):
        self._ex = ex
        self._cookie_seq = itertools.count(0xA000)
        self.health = _SymHealth()
        self.fault_plan: Optional[Any] = None

    def _live(self, cookie: int) -> Optional[Region]:
        region = self._ex.model.regions.get(cookie)
        return region if region is not None and region.destroy is None \
            else None

    def _reject(self, op: str, exc: Exception, **info: Any) -> Exception:
        self._ex.record("fail", op=op, error=type(exc).__name__, **info)
        return exc

    def create_region(self, core: int, buffer: SymBuffer, offset: int,
                      length: int, prot: int) -> "Iterator[Any]":
        if False:  # pragma: no cover - generator marker
            yield None
        ex = self._ex
        if prot & ~(PROT_READ | PROT_WRITE) or prot == 0:
            raise self._reject("register", KnemPermissionError(
                f"bad protection flags {prot:#x}"))
        try:
            buffer.check_range(offset, length)
        except KnemBoundsError as exc:
            raise self._reject("register", exc) from None
        cookie = next(self._cookie_seq)
        step = ex.record("register", cookie=cookie, buf=buffer.id,
                         offset=offset, length=length, prot=prot)
        ex.model.add_region(step, cookie, buffer.id, offset, length, prot,
                            label=buffer.label)
        ex.local_op(step, f"register cookie {cookie:#x}", "register", cookie)
        return cookie

    def copy(self, core: int, cookie: int, region_offset: int,
             local: SymBuffer, local_offset: int, nbytes: int, write: bool,
             flags: int = 0) -> "Iterator[Any]":
        if False:  # pragma: no cover - generator marker
            yield None
        ex = self._ex
        region = self._live(cookie)
        kind = "write" if write else "read"
        info = {"cookie": cookie, "nbytes": nbytes, "write": write}
        if region is None:
            raise self._reject("copy", KnemInvalidCookie(
                f"cookie {cookie:#x} is not a live region"), **info)
        if not region.prot & (PROT_WRITE if write else PROT_READ):
            raise self._reject("copy", KnemPermissionError(
                f"region {cookie:#x} does not allow {kind} access"), **info)
        if region_offset < 0 or nbytes < 0 \
                or region_offset + nbytes > region.length:
            raise self._reject("copy", KnemBoundsError(
                f"[{region_offset}, {region_offset + nbytes}) outside "
                f"region of length {region.length}"), **info)
        local.check_range(local_offset, nbytes)
        start = region.offset + region_offset
        accesses = (
            Access(region.buf, start, start + nbytes, write),
            Access(local.id, local_offset, local_offset + nbytes, not write),
        )
        step = ex.record("knem-copy", accesses=accesses, **info)
        region.uses.append(step)
        ex.local_op(step, f"{kind} copy via cookie {cookie:#x}", "copy", cookie)
        return None

    def _release(self, region: Region, kind: str) -> None:
        step = self._ex.record(kind, cookie=region.cookie)
        region.destroy = step
        self._ex.local_op(step, f"{kind} cookie {region.cookie:#x}",
                          "destroy", region.cookie)

    def destroy_region(self, core: int, cookie: int) -> "Iterator[Any]":
        if False:  # pragma: no cover - generator marker
            yield None
        region = self._live(cookie)
        if region is None:
            raise self._reject("destroy", KnemInvalidCookie(
                f"cookie {cookie:#x} is not a live region"), cookie=cookie)
        self._release(region, "destroy")
        return None

    def destroy_region_safe(self, core: int, cookie: int) -> "Iterator[Any]":
        yield from self.destroy_region(core, cookie)

    def reclaim(self, core: int, cookie: int) -> None:
        region = self._live(cookie)
        if region is not None:
            self._release(region, "reclaim")


class SymMem:
    def __init__(self, ex: "_Extractor"):
        self._ex = ex

    def copy(self, core: int, src: SymBuffer, src_off: int, dst: SymBuffer,
             dst_off: int, nbytes: int, label: str = "",
             kernel: bool = False) -> _Ready:
        src.check_range(src_off, nbytes)
        dst.check_range(dst_off, nbytes)
        accesses = (Access(src.id, src_off, src_off + nbytes, False),
                    Access(dst.id, dst_off, dst_off + nbytes, True))
        step = self._ex.record("local-copy", accesses=accesses,
                               nbytes=nbytes, label=label)
        self._ex.local_op(step, f"local copy ({label})")
        return _Ready(None)


class SymSim:
    def timeout(self, _delay: float) -> _Ready:
        return _Ready(None)


class _SymShm:
    def __init__(self) -> None:
        self.costs = KernelCosts()


class SymMachine:
    def __init__(self, ex: "_Extractor", spec: MachineSpec):
        self.spec = spec
        self.sim = SymSim()
        self.mem = SymMem(ex)
        self.shm = _SymShm()
        self.knem = SymKnem(ex)


class SymProc:
    def __init__(self, ex: "_Extractor", rank: int, core: int):
        self._ex = ex
        self.rank = rank
        self.core = core

    def alloc(self, nbytes: int, label: str = "",
              backed: bool = True) -> SymBuffer:
        return self._ex.alloc(nbytes, label, self.rank)

    def elem_ops(self, n: int) -> _Ready:
        return _Ready(None)

    def compute(self, seconds: float) -> _Ready:
        return _Ready(None)


class SymWorld:
    def __init__(self, machine: SymMachine, stack: Any, size: int):
        self.machine = machine
        self.stack = stack
        self.size = size


class _Board:
    """The collective bulletin board, instrumented for HB checking."""

    def __init__(self, ex: "_Extractor"):
        self._ex = ex
        self._data: "dict[Any, Any]" = {}

    def _touch(self, key: Any, write: bool) -> Step:
        space = ("board",) + tuple(key) if isinstance(key, tuple) \
            else ("board", key)
        acc = (Access(space, 0, 1, write),)
        verb = "post" if write else "get"
        step = self._ex.record(f"board-{verb}", accesses=acc, key=key)
        self._ex.local_op(step, f"board {verb} {key}")
        return step

    def __setitem__(self, key: Any, value: Any) -> None:
        self._ex.model.board_posts[key] = self._touch(key, True)
        self._data[key] = value

    def __getitem__(self, key: Any) -> Any:
        value = self._data[key]  # KeyError -> CommunicatorError upstream
        self._ex.model.board_gets.append((key, self._touch(key, False)))
        return value

    def __contains__(self, key: Any) -> bool:
        return key in self._data


class _Shared:
    def __init__(self, ex: "_Extractor"):
        self.board = _Board(ex)
        self.coll_cache: "dict[Any, Any]" = {}


class SymComm:
    """Duck-typed :class:`repro.mpi.communicator.Comm` for one rank."""

    def __init__(self, ex: "_Extractor", rank: int):
        self._ex = ex
        self.rank = rank
        self.world = ex.world
        self.shared = ex.shared
        self.proc = ex.procs[rank]
        self.cid = 1

    @property
    def size(self) -> int:
        return self._ex.nprocs

    def core_of(self, rank: int) -> int:
        return self._ex.cores[rank]

    # -- posts ------------------------------------------------------------
    def isend(self, dest: int, buf: SymBuffer, offset: int = 0,
              nbytes: "Optional[int]" = None, tag: Any = 0) -> SymRequest:
        n = buf.size - offset if nbytes is None else nbytes
        return self._ex.post_send(self.rank, dest, tag, n,
                                  buf=buf, offset=offset)

    def isend_obj(self, dest: int, obj: Any, tag: Any = 0) -> SymRequest:
        return self._ex.post_send(self.rank, dest, tag, _OBJECT_NBYTES,
                                  payload=obj, is_obj=True)

    def irecv(self, source: int, buf: SymBuffer, offset: int = 0,
              nbytes: "Optional[int]" = None, tag: Any = 0) -> SymRequest:
        n = buf.size - offset if nbytes is None else nbytes
        return self._ex.post_recv(self.rank, source, tag,
                                  buf=buf, offset=offset, nbytes=n)

    # -- blocking wrappers (mirror ``Comm``'s generators) ----------------
    def send(self, dest: int, buf: SymBuffer, offset: int = 0,
             nbytes: "Optional[int]" = None, tag: Any = 0) -> "Iterator[Any]":
        req = self.isend(dest, buf, offset, nbytes, tag)
        yield req.event

    def send_obj(self, dest: int, obj: Any, tag: Any = 0) -> "Iterator[Any]":
        req = self.isend_obj(dest, obj, tag)
        yield req.event

    def recv(self, source: int, buf: SymBuffer, offset: int = 0,
             nbytes: "Optional[int]" = None, tag: Any = 0) -> "Iterator[Any]":
        req = self.irecv(source, buf, offset, nbytes, tag)
        status = yield req.event
        return status

    def recv_obj(self, source: int, tag: Any = 0) -> "Iterator[Any]":
        req = self._ex.post_recv(self.rank, source, tag, is_obj=True)
        status = yield req.event
        return status.payload, status

    def sendrecv(self, dest: int, sendbuf: SymBuffer, send_off: int,
                 send_n: int, source: int, recvbuf: SymBuffer, recv_off: int,
                 recv_n: int, tag: Any = 0) -> "Iterator[Any]":
        rreq = self.irecv(source, recvbuf, recv_off, recv_n, tag)
        sreq = self.isend(dest, sendbuf, send_off, send_n, tag)
        yield sreq.event
        status = yield rreq.event
        return status


# ---------------------------------------------------------------------------
# extraction engine
# ---------------------------------------------------------------------------

@dataclass
class _RankState:
    gen: "Iterator[Any]"
    vc: VectorClock
    blocked_on: Optional[SymEvent] = None
    resume: Any = None
    done: bool = False
    failed: bool = False


class _Extractor:
    def __init__(self, spec: MachineSpec, stack: Any, nprocs: int):
        self.spec = spec
        self.stack = stack
        self.nprocs = nprocs
        self.cores = bind_ranks(spec, nprocs)
        self.model = ScheduleModel(nprocs, machine=spec.name)
        self.machine = SymMachine(self, spec)
        self.world = SymWorld(self.machine, stack, nprocs)
        self.procs = [SymProc(self, r, c) for r, c in enumerate(self.cores)]
        self.shared = _Shared(self)
        self.comms = [SymComm(self, r) for r in range(nprocs)]
        self.channels: "dict[tuple[Any, ...], _Chan]" = {}
        self.current_rank = 0
        self._buf_seq = itertools.count(1)
        self.states: "list[_RankState]" = []

    # -- bookkeeping ------------------------------------------------------
    def alloc(self, nbytes: int, label: str, rank: int) -> SymBuffer:
        return SymBuffer(next(self._buf_seq), nbytes, label, rank)

    def finding(self, severity: str, checker: str, category: str,
                message: str, rank: "Optional[int]" = None) -> None:
        self.model.findings.append(Finding(
            checker=checker, category=category, severity=severity,
            message=message,
            rank=self.current_rank if rank is None else rank))

    def record(self, kind: str, rank: "Optional[int]" = None,
               accesses: "tuple[Access, ...]" = (), **info: Any) -> Step:
        r = self.current_rank if rank is None else rank
        vc = self.states[r].vc
        vc.tick(r)
        step = self.model.add_step(kind, r, vc.copy(), accesses, info)
        if step.index > _MAX_STEPS:
            raise RuntimeError("schedule extraction exceeded step budget")
        return step

    def replay_op(self, op: Op) -> None:
        self.model.replay[op.rank].append(op)

    def local_op(self, step: Step, label: str, cookie_verb: str = "",
                 cookie: int = -1) -> None:
        """Replay a step of the current rank that no message orders."""
        self.replay_op(Op(rank=self.current_rank, kind="local",
                          accesses=step.accesses, cookie_verb=cookie_verb,
                          cookie=cookie, gid=step.index, label=label))

    def channel(self, key: "tuple[Any, ...]") -> _Chan:
        ch = self.channels.get(key)
        if ch is None:
            ch = self.channels[key] = _Chan()
        return ch

    # -- message plumbing -------------------------------------------------
    def post_send(self, src: int, dest: int, tag: Any, nbytes: int,
                  buf: Optional[SymBuffer] = None, offset: int = 0,
                  payload: Any = None, is_obj: bool = False) -> SymRequest:
        chan = (src, dest, tag)
        ch = self.channel(chan)
        accesses: "tuple[Access, ...]" = ()
        if not is_obj and buf is not None and nbytes > 0:
            accesses = (Access(buf.id, offset, offset + nbytes, False),)
        step = self.record("send", rank=src, accesses=accesses, dest=dest,
                           tag=tag, nbytes=nbytes, obj=is_obj)
        rendezvous = (not is_obj) and nbytes > self.stack.eager_limit
        idx = ch.sends
        ch.sends += 1
        self.replay_op(Op(rank=src, kind="send", chan=chan, idx=idx,
                          accesses=accesses, gid=step.index,
                          label=("rendezvous send" if rendezvous
                                 else "eager send")))
        ev = SymEvent(ref=("fin", chan, idx) if rendezvous else None)
        req = SymRequest(ev)
        env = _Envelope(payload=payload, nbytes=nbytes, rendezvous=rendezvous,
                        is_obj=is_obj, send=step, event=ev)
        if not rendezvous:
            ev.succeed(None)
        if ch.waiting:
            self._match(chan, env, ch.waiting.popleft())
        else:
            ch.queue.append(env)
        return req

    def post_recv(self, dst: int, source: int, tag: Any,
                  buf: Optional[SymBuffer] = None, offset: int = 0,
                  nbytes: int = 0, is_obj: bool = False) -> SymRequest:
        chan = (source, dst, tag)
        ch = self.channel(chan)
        idx = ch.recvs
        ch.recvs += 1
        step = self.record("recv-post", rank=dst, src=source, tag=tag)
        accesses: "tuple[Access, ...]" = ()
        if not is_obj and buf is not None and nbytes > 0:
            accesses = (Access(buf.id, offset, offset + nbytes, True),)
        self.replay_op(Op(rank=dst, kind="recv", chan=chan, idx=idx,
                          accesses=accesses, gid=step.index,
                          label="recv post"))
        ev = SymEvent(ref=("recv", chan, idx))
        req = SymRequest(ev)
        post = _RecvPost(rank=dst, req=req, post=step, is_obj=is_obj,
                         buf=buf, offset=offset, nbytes=nbytes)
        if ch.queue:
            self._match(chan, ch.queue.popleft(), post)
        else:
            ch.waiting.append(post)
        return req

    def _match(self, chan: "tuple[Any, ...]", env: _Envelope,
               post: _RecvPost) -> None:
        src, dst, tag = chan
        if not env.is_obj and not post.is_obj and env.nbytes > post.nbytes:
            self.finding(ERROR, "symcomm", "truncation",
                         f"message of {env.nbytes} B from rank {src} "
                         f"truncated into a {post.nbytes} B recv at rank "
                         f"{dst} (tag {tag})", rank=dst)
        delivery_vc = _vc(post.post).copy()
        delivery_vc.join(_vc(env.send))
        accesses: "tuple[Access, ...]" = ()
        if not env.is_obj and post.buf is not None:
            n = min(env.nbytes, post.nbytes)
            if n > 0:
                accesses = (Access(post.buf.id, post.offset,
                                   post.offset + n, True),)
        # delivery joins both ends without ticking either rank
        self.model.add_step("deliver", post.rank, delivery_vc, accesses,
                            {"src": src, "tag": tag, "nbytes": env.nbytes})
        status = SymStatus(source=src, tag=tag, nbytes=env.nbytes,
                           payload=env.payload)
        post.req.event.succeed(status, join_vc=delivery_vc)
        if env.rendezvous:
            env.event.succeed(None, join_vc=delivery_vc)

    # -- the cooperative scheduler ---------------------------------------
    def run(self, programs: "list[Iterator[Any]]") -> ScheduleModel:
        self.states = [_RankState(gen=g, vc=VectorClock(self.nprocs))
                       for g in programs]
        try:
            self._drive()
        except RuntimeError as exc:
            self.model.error = str(exc)
            self.finding(ERROR, "symcomm", "extraction-error", str(exc))
        return self.model

    def _drive(self) -> None:
        while True:
            progressed = False
            for rank, st in enumerate(self.states):
                if st.done:
                    continue
                ev = st.blocked_on
                if ev is not None:
                    if not ev.triggered:
                        continue
                    st.resume = ev.value
                    if ev.join_vc is not None:
                        st.vc.join(ev.join_vc)
                    st.blocked_on = None
                progressed = True
                self._step_rank(rank, st)
            if all(st.done for st in self.states):
                return
            if not progressed:
                self._report_deadlock()
                return

    def _step_rank(self, rank: int, st: _RankState) -> None:
        self.current_rank = rank
        while True:
            try:
                yielded = st.gen.send(st.resume)
            except StopIteration:
                st.done = True
                return
            except Exception as exc:  # noqa: BLE001 - surfaced as finding
                st.done = True
                st.failed = True
                self.finding(ERROR, "symcomm", "extraction-error",
                             f"rank {rank} raised {type(exc).__name__}: "
                             f"{exc}", rank=rank)
                return
            st.resume = None
            if isinstance(yielded, _Ready):
                st.resume = yielded.value
                continue
            if isinstance(yielded, SymEvent):
                if yielded.ref is not None:
                    kind, chan, idx = yielded.ref
                    self.replay_op(Op(
                        rank=rank,
                        kind="wait_fin" if kind == "fin" else "wait_recv",
                        chan=chan, idx=idx,
                        label=f"wait {kind} #{idx}"))
                if yielded.triggered:
                    st.resume = yielded.value
                    if yielded.join_vc is not None:
                        st.vc.join(yielded.join_vc)
                    continue
                st.blocked_on = yielded
                return
            st.done = True
            st.failed = True
            self.finding(ERROR, "symcomm", "extraction-error",
                         f"rank {rank} yielded unsupported object "
                         f"{type(yielded).__name__}", rank=rank)
            return

    def _report_deadlock(self) -> None:
        """Hand the wedge to the deadlock checker as wait-for facts."""
        if any(st.failed for st in self.states):
            return  # an extraction error already explains the wedge
        model = self.model
        blocked: "list[str]" = []
        waiting: "dict[str, str]" = {}
        for rank, st in enumerate(self.states):
            if st.done or st.blocked_on is None:
                continue
            name = f"rank{rank}"
            blocked.append(name)
            ref = st.blocked_on.ref
            if ref is None:
                waiting[name] = "an internal event"
                continue
            kind, (src, dst, tag), idx = ref
            waiting[name] = (
                f"message #{idx} from rank {src} (tag {tag})"
                if kind == "recv" else
                f"rank {dst} to drain rendezvous send #{idx} (tag {tag})")
        for (src, dst, _tag), ch in self.channels.items():
            for env in ch.queue:
                if env.rendezvous:
                    model.outstanding_sends[env.send.index] = (src, dst)
            for post in ch.waiting:
                model.pending_recvs[post.post.index] = (dst, src)
        model.deadlock = DeadlockError(blocked, waiting=waiting)


def _vc(step: Step) -> VectorClock:
    assert step.vc is not None  # every extracted step carries a clock
    return step.vc


# ---------------------------------------------------------------------------
# drivers and public API
# ---------------------------------------------------------------------------

_COMPONENT_STACK_NAMES = {
    "knem": "KNEM_COLL",
    "tuned": "TUNED_KNEM",
    "mpich2": "MPICH2_KNEM",
    "basic": "BASIC_SM",
    "smtree": "SM_TREE",
}


def component_stack(component: str) -> Any:
    """The library stack a component is verified under."""
    from repro.mpi import stacks as _stacks
    try:
        return getattr(_stacks, _COMPONENT_STACK_NAMES[component])
    except KeyError:
        raise KeyError(f"no stack mapping for component {component!r}") \
            from None


def _drive(op: str, coll: Any, ctx: Any, proc: SymProc, nbytes: int,
           size: int) -> "Iterator[Any]":
    """Per-rank driver generator invoking the real component method."""
    if op == "barrier":
        yield from coll.barrier(ctx)
    elif op == "bcast":
        buf = proc.alloc(nbytes, label=f"bcast-r{proc.rank}")
        yield from coll.bcast(ctx, buf, 0, nbytes, 0)
    elif op == "scatter":
        sendbuf = proc.alloc(nbytes * size, label=f"scatter-send-r{proc.rank}")
        recvbuf = proc.alloc(nbytes, label=f"scatter-recv-r{proc.rank}")
        yield from coll.scatter(ctx, sendbuf, recvbuf, nbytes, 0)
    elif op == "gather":
        sendbuf = proc.alloc(nbytes, label=f"gather-send-r{proc.rank}")
        recvbuf = proc.alloc(nbytes * size, label=f"gather-recv-r{proc.rank}")
        yield from coll.gather(ctx, sendbuf, recvbuf, nbytes, 0)
    elif op == "allgather":
        sendbuf = proc.alloc(nbytes, label=f"ag-send-r{proc.rank}")
        recvbuf = proc.alloc(nbytes * size, label=f"ag-recv-r{proc.rank}")
        yield from coll.allgather(ctx, sendbuf, recvbuf, nbytes)
    elif op in ("alltoall", "alltoallv"):
        sendbuf = proc.alloc(nbytes * size, label=f"a2a-send-r{proc.rank}")
        recvbuf = proc.alloc(nbytes * size, label=f"a2a-recv-r{proc.rank}")
        yield from coll.alltoall(ctx, sendbuf, recvbuf, nbytes)
    elif op == "reduce":
        sendbuf = proc.alloc(nbytes, label=f"red-send-r{proc.rank}")
        recvbuf = proc.alloc(nbytes, label=f"red-recv-r{proc.rank}")
        yield from coll.reduce(ctx, sendbuf, recvbuf, nbytes, 0)
    elif op == "allreduce":
        sendbuf = proc.alloc(nbytes, label=f"ared-send-r{proc.rank}")
        recvbuf = proc.alloc(nbytes, label=f"ared-recv-r{proc.rank}")
        yield from coll.allreduce(ctx, sendbuf, recvbuf, nbytes)
    else:
        raise ValueError(f"no symbolic driver for operation {op!r}")


def extract_model(component: str, op: str, machine: "str | MachineSpec",
                  nprocs: int, nbytes: int = 64 * KiB,
                  stack: Any = None,
                  coll_factory: "Optional[Callable[[Any], Any]]" = None,
                  ) -> ScheduleModel:
    """Extract the schedule of one collective without running the simulator.

    ``coll_factory`` overrides component lookup (used by tests to inject
    deliberately broken schedules).
    """
    from repro.coll.base import make_component
    from repro.mpi.communicator import CollCtx

    spec = get_machine(machine) if isinstance(machine, str) else machine
    if stack is None:
        stack = component_stack(component)
    ex = _Extractor(spec, stack, nprocs)
    if coll_factory is None:
        coll = make_component(component, ex.world)
    else:
        coll = coll_factory(ex.world)
    programs = []
    for rank in range(nprocs):
        ctx = CollCtx(ex.comms[rank], seq=1)
        programs.append(_drive(op, coll, ctx, ex.procs[rank], nbytes, nprocs))
    return ex.run(programs)


# ---------------------------------------------------------------------------
# happens-before verification
# ---------------------------------------------------------------------------

def verify_model(model: ScheduleModel,
                 direction: Optional[DirectionSpec] = None,
                 explore: bool = True,
                 max_transitions: int = 250_000,
                 ) -> "tuple[list[Finding], dict[str, object]]":
    """Extraction findings, the checker set, and (optionally) the DPOR
    interleaving exploration."""
    model.direction_spec = direction
    findings = list(model.findings) + run_checkers(model)
    receipts: "dict[str, object]" = {
        "steps": len(model.steps),
        "messages": sum(1 for s in model.steps if s.kind == "send"),
        "regions": len(model.regions),
    }
    if explore and not model.error:
        result: ExploreResult = explore_model(
            model, max_transitions=max_transitions)
        findings += result.findings
        receipts.update(result.receipts)
    return findings, receipts


# ---------------------------------------------------------------------------
# registry sweep
# ---------------------------------------------------------------------------

@dataclass
class VerifyResult:
    """One (schedule, variant, machine, nprocs) verification outcome."""

    schedule: str
    variant: str
    machine: str
    nprocs: int
    nbytes: int
    findings: "list[Finding]" = field(default_factory=list)
    receipts: "dict[str, object]" = field(default_factory=dict)
    skipped: str = ""

    @property
    def clean(self) -> bool:
        return not any(f.severity == ERROR for f in self.findings)

    @property
    def name(self) -> str:
        variant = f"+{self.variant}" if self.variant else ""
        return (f"{self.schedule}{variant}@{self.machine}"
                f"x{self.nprocs}/{self.nbytes}B")

    def to_dict(self) -> "dict[str, object]":
        return {
            "schedule": self.schedule,
            "variant": self.variant,
            "machine": self.machine,
            "nprocs": self.nprocs,
            "nbytes": self.nbytes,
            "skipped": self.skipped,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
            "receipts": dict(self.receipts),
        }


def verify_schedule(name: str, machine: str = "zoot", nprocs: int = 8,
                    nbytes: int = 64 * KiB, variant: str = "",
                    explore: bool = True,
                    max_transitions: int = 250_000) -> VerifyResult:
    """Model-check one exported schedule on one machine at one comm size."""
    spec = get_schedule(name)
    result = VerifyResult(schedule=name, variant=variant, machine=machine,
                          nprocs=nprocs, nbytes=nbytes)
    stack = component_stack(spec.component)
    direction = spec.contract
    if variant:
        overrides = dict(dict(spec.variants).get(variant, ()))
        if not overrides:
            raise KeyError(f"schedule {name} has no variant {variant!r}")
        stack = stack.with_tuning(**overrides)
        direction = DirectionSpec()  # variants may flip the declared one
    hw = get_machine(machine)
    if nprocs > hw.n_cores:
        result.skipped = (f"{nprocs} ranks oversubscribe {machine} "
                          f"({hw.n_cores} cores); binding policy rejects it")
        return result
    try:
        model = extract_model(spec.component, spec.op, hw, nprocs,
                              nbytes=nbytes, stack=stack)
    except HardwareConfigError as exc:
        result.skipped = str(exc)
        return result
    result.findings, result.receipts = verify_model(
        model, direction=direction, explore=explore,
        max_transitions=max_transitions)
    return result


def verify_registry(machines: "tuple[str, ...]" = ("zoot",),
                    sizes: "tuple[int, ...]" = (2, 4, 8, 16),
                    nbytes: int = 64 * KiB,
                    names: "Optional[list[str]]" = None,
                    variants: bool = True,
                    explore: bool = True,
                    max_transitions: int = 250_000) -> "list[VerifyResult]":
    """Model-check every exported schedule across machines and comm sizes."""
    results: "list[VerifyResult]" = []
    for spec in exported_schedules():
        if names is not None and spec.name not in names:
            continue
        runs = [""]
        if variants:
            runs += [v for v, _changes in spec.variants]
        for machine in machines:
            for nprocs in sizes:
                for variant in runs:
                    results.append(verify_schedule(
                        spec.name, machine=machine, nprocs=nprocs,
                        nbytes=nbytes, variant=variant, explore=explore,
                        max_transitions=max_transitions))
    return results
