"""Communicators: rank translation, point-to-point API, collective dispatch.

Each simulated process holds its own :class:`Comm` view of a communicator;
per-communicator state shared between ranks (context id, rank table, the
shared-memory bulletin board, cached collective topologies) lives in one
:class:`CommShared` per communicator.

Collective calls are dispatched to the active collective component (chosen
by the :class:`~repro.mpi.stacks.Stack`).  Every call increments a local
sequence number — identical across ranks because MPI requires collectives
to be invoked in the same order on every rank — which isolates the
point-to-point traffic of concurrent collectives via internal tags.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.errors import (
    CommunicatorError,
    ProcessKilled,
    RankCrashed,
    RankFailed,
)
from repro.hardware.memory import SimBuffer
from repro.mpi.matching import ANY_SOURCE, ANY_TAG
from repro.mpi.status import Request, Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import Proc, World

__all__ = ["ANY_SOURCE", "ANY_TAG", "CommShared", "Comm", "CollCtx"]


class CommShared:
    """State shared by every rank's view of one communicator."""

    def __init__(self, world: "World", cid: int, world_ranks: list[int]):
        if len(set(world_ranks)) != len(world_ranks):
            raise CommunicatorError("duplicate world ranks in communicator group")
        self.world = world
        self.cid = cid
        self.world_ranks = list(world_ranks)
        #: the group never changes after construction (``shrink`` builds a
        #: new communicator), so its size is a plain attribute
        self.size = len(self.world_ranks)
        #: shared-memory bulletin board: (seq, rank) -> value (cookie arrays &c.)
        self.board: dict[tuple[int, int], Any] = {}
        #: per-communicator cache for collective topologies / FIFO sets
        self.coll_cache: dict[Any, Any] = {}


class Comm:
    """One rank's handle on a communicator."""

    def __init__(self, shared: CommShared, proc: "Proc", rank: int):
        self.shared = shared
        self.proc = proc
        self.rank = rank
        self.size = shared.size
        self._coll_seq = 0

    # -- basic facts -----------------------------------------------------
    @property
    def cid(self) -> int:
        return self.shared.cid

    @property
    def world(self) -> "World":
        return self.shared.world

    def world_rank(self, rank: int) -> int:
        if not 0 <= rank < self.size:
            raise CommunicatorError(f"rank {rank} out of range for size {self.size}")
        return self.shared.world_ranks[rank]

    def core_of(self, rank: int) -> int:
        """The physical core rank ``rank`` is bound to (topology queries)."""
        return self.world.proc(self.world_rank(rank)).core

    # -- point-to-point ------------------------------------------------------
    def send(self, dest: int, buf: SimBuffer, offset: int = 0,
             nbytes: Optional[int] = None, tag: Any = 0):
        """Blocking buffer send (generator)."""
        nbytes = buf.size - offset if nbytes is None else nbytes
        yield from self.proc.pml.send(self.cid, self.rank, self.world_rank(dest),
                                      tag, buf, offset, nbytes)

    def recv(self, source: int, buf: SimBuffer, offset: int = 0,
             nbytes: Optional[int] = None, tag: Any = ANY_TAG):
        """Blocking buffer receive (generator); returns :class:`Status`."""
        nbytes = buf.size - offset if nbytes is None else nbytes
        src = source if source == ANY_SOURCE else self._check_rank(source)
        status = yield from self.proc.pml.recv(self.cid, src, tag, buf,
                                               offset, nbytes)
        return status

    def send_obj(self, dest: int, obj: Any, tag: Any = 0):
        """Send a small Python object (control message) — generator."""
        yield from self.proc.pml.send(self.cid, self.rank, self.world_rank(dest),
                                      tag, obj=obj)

    def recv_obj(self, source: int = ANY_SOURCE, tag: Any = ANY_TAG):
        """Receive an object message (generator); returns ``(obj, status)``."""
        src = source if source == ANY_SOURCE else self._check_rank(source)
        status = yield from self.proc.pml.recv(self.cid, src, tag,
                                               want_object=True)
        return status.payload, status

    def isend(self, dest: int, buf: SimBuffer, offset: int = 0,
              nbytes: Optional[int] = None, tag: Any = 0) -> Request:
        nbytes = buf.size - offset if nbytes is None else nbytes
        return self.proc.pml.isend(self.cid, self.rank, self.world_rank(dest),
                                   tag, buf, offset, nbytes)

    def isend_obj(self, dest: int, obj: Any, tag: Any = 0) -> Request:
        return self.proc.pml.isend(self.cid, self.rank, self.world_rank(dest),
                                   tag, obj=obj)

    def irecv(self, source: int, buf: SimBuffer, offset: int = 0,
              nbytes: Optional[int] = None, tag: Any = ANY_TAG) -> Request:
        nbytes = buf.size - offset if nbytes is None else nbytes
        src = source if source == ANY_SOURCE else self._check_rank(source)
        return self.proc.pml.post_recv(self.cid, src, tag, buf, offset, nbytes)

    def sendrecv(self, dest: int, sendbuf: SimBuffer, send_off: int,
                 send_nbytes: int, source: int, recvbuf: SimBuffer,
                 recv_off: int, recv_nbytes: int, tag: Any = 0):
        """Simultaneous send+recv (generator); returns the receive status."""
        rreq = self.irecv(source, recvbuf, recv_off, recv_nbytes, tag)
        sreq = self.isend(dest, sendbuf, send_off, send_nbytes, tag)
        yield sreq.event
        status = yield rreq.event
        return status

    def _check_rank(self, rank: int) -> int:
        if not 0 <= rank < self.size:
            raise CommunicatorError(f"rank {rank} out of range for size {self.size}")
        return rank

    # -- collectives ---------------------------------------------------------
    def _ctx(self) -> "CollCtx":
        self._coll_seq += 1
        return CollCtx(self, self._coll_seq)

    def _coll(self, op: str, gen, nbytes: int = 0):
        """Guard one collective call with the rank-failure machinery.

        Entry order: (1) ULFM semantics — a collective over a communicator
        with a known-dead member fails immediately with
        :class:`~repro.errors.RankFailed` (shrink and retry to make
        progress); (2) armed ``rank.stall``/``rank.crash`` rules fire, the
        per-(op, core) call index counting this rank's collective entries;
        (3) the call registers in the world's active-collective table so a
        peer dying mid-operation can deliver ``RankFailed`` here instead of
        leaving this rank hung.  ``nbytes`` is the op's primary payload size
        (what size-windowed rules match against).
        """
        world = self.world
        proc = self.proc
        wrank = proc.rank
        dead = world.dead_in(self.shared.world_ranks)
        if dead is not None:
            gen.close()
            raise RankFailed(dead, op)
        plan = world.machine.fault_plan
        if plan is not None:
            rule = plan.fire_rule("rank.stall", proc.core, nbytes)
            if rule is not None and rule.delay:
                tr = world.machine.tracer
                if tr.enabled:
                    tr.emit("rank.stall", rank=wrank, core=proc.core,
                            op=op, delay=rule.delay)
                else:
                    tr.tick("rank.stall")
                yield world.machine.sim.timeout(rule.delay)
            if plan.fire_rule("rank.crash", proc.core, nbytes) is not None:
                world.note_crash(wrank, op)
                gen.close()
                raise RankCrashed(wrank)
        world.enter_coll(wrank, op, self)
        try:
            result = yield from gen
            return result
        except RankFailed:
            # A peer died mid-operation: this rank's protocol children for
            # the aborted collective must not outlive it (they would pin
            # FIFO locks and slots forever, deadlocking the shrink-retry).
            world.abort_local(wrank, op)
            raise
        finally:
            world.exit_coll(wrank)

    def barrier(self):
        yield from self._coll("barrier", self.world.coll.barrier(self._ctx()))

    def bcast(self, buf: SimBuffer, offset: int, nbytes: int, root: int):
        self._check_rank(root)
        yield from self._coll(
            "bcast",
            self.world.coll.bcast(self._ctx(), buf, offset, nbytes, root),
            nbytes)

    def scatter(self, sendbuf: Optional[SimBuffer], recvbuf: SimBuffer,
                count: int, root: int):
        """Root's ``sendbuf`` holds ``size * count`` bytes; all receive ``count``."""
        self._check_rank(root)
        yield from self._coll(
            "scatter",
            self.world.coll.scatter(self._ctx(), sendbuf, recvbuf, count, root),
            count)

    def scatterv(self, sendbuf: Optional[SimBuffer], counts: list[int],
                 displs: list[int], recvbuf: SimBuffer, root: int):
        self._check_rank(root)
        self._check_v(counts, displs)
        yield from self._coll(
            "scatterv",
            self.world.coll.scatterv(self._ctx(), sendbuf, counts, displs,
                                     recvbuf, root),
            sum(counts))

    def gather(self, sendbuf: SimBuffer, recvbuf: Optional[SimBuffer],
               count: int, root: int):
        self._check_rank(root)
        yield from self._coll(
            "gather",
            self.world.coll.gather(self._ctx(), sendbuf, recvbuf, count, root),
            count)

    def gatherv(self, sendbuf: SimBuffer, recvbuf: Optional[SimBuffer],
                counts: list[int], displs: list[int], root: int):
        self._check_rank(root)
        self._check_v(counts, displs)
        yield from self._coll(
            "gatherv",
            self.world.coll.gatherv(self._ctx(), sendbuf, recvbuf, counts,
                                    displs, root),
            sum(counts))

    def allgather(self, sendbuf: SimBuffer, recvbuf: SimBuffer, count: int):
        yield from self._coll(
            "allgather",
            self.world.coll.allgather(self._ctx(), sendbuf, recvbuf, count),
            count)

    def allgatherv(self, sendbuf: SimBuffer, recvbuf: SimBuffer,
                   counts: list[int], displs: list[int]):
        self._check_v(counts, displs)
        yield from self._coll(
            "allgatherv",
            self.world.coll.allgatherv(self._ctx(), sendbuf, recvbuf, counts,
                                       displs),
            sum(counts))

    def alltoall(self, sendbuf: SimBuffer, recvbuf: SimBuffer, count: int):
        yield from self._coll(
            "alltoall",
            self.world.coll.alltoall(self._ctx(), sendbuf, recvbuf, count),
            count)

    def reduce(self, sendbuf: SimBuffer, recvbuf: Optional[SimBuffer],
               count: int, root: int, dtype: str = "u1", op: str = "sum"):
        """Element-wise reduction of ``count`` bytes viewed as ``dtype``."""
        self._check_rank(root)
        yield from self._coll(
            "reduce",
            self.world.coll.reduce(self._ctx(), sendbuf, recvbuf, count, root,
                                   dtype=dtype, op=op),
            count)

    def allreduce(self, sendbuf: SimBuffer, recvbuf: SimBuffer, count: int,
                  dtype: str = "u1", op: str = "sum"):
        yield from self._coll(
            "allreduce",
            self.world.coll.allreduce(self._ctx(), sendbuf, recvbuf, count,
                                      dtype=dtype, op=op),
            count)

    def alltoallv(self, sendbuf: SimBuffer, send_counts: list[int],
                  send_displs: list[int], recvbuf: SimBuffer,
                  recv_counts: list[int], recv_displs: list[int]):
        self._check_v(send_counts, send_displs)
        self._check_v(recv_counts, recv_displs)
        yield from self._coll(
            "alltoallv",
            self.world.coll.alltoallv(
                self._ctx(), sendbuf, send_counts, send_displs,
                recvbuf, recv_counts, recv_displs),
            sum(send_counts))

    # -- non-blocking collectives (MPI-3-style extension) ---------------------
    def _spawn_coll(self, gen, kind: str) -> Request:
        """Run a collective generator as a child process; returns a Request.

        Sequence numbers are taken at call time, so overlapped non-blocking
        collectives keep distinct internal tags as long as every rank issues
        them in the same order (the MPI requirement).
        """
        # ULFM check at call time only: a non-blocking collective over a
        # communicator with a dead member errors immediately.  Crash/stall
        # rules and mid-flight failure delivery apply to blocking
        # collectives (the _coll guard); the child still carries the owner
        # tag so a crash of *this* rank takes it down.
        dead = self.world.dead_in(self.shared.world_ranks)
        if dead is not None:
            gen.close()
            raise RankFailed(dead, kind)
        sim = self.proc.machine.sim
        req = Request(sim, kind)
        child = sim.process(gen, name=f"{kind}[{self.rank}]",
                            owner=self.proc.rank)

        def finish(ev):
            if ev.ok:
                req._finish(None)
            else:
                req.event.fail(ev.value)
                if isinstance(ev.value, (RankCrashed, RankFailed,
                                         ProcessKilled)):
                    # A crash-path failure may go unobserved (the waiting
                    # program itself died): don't let it abort the whole
                    # simulation when the event is processed.
                    req.event._defused = True

        child.add_callback(finish)
        return req

    def ibcast(self, buf: SimBuffer, offset: int, nbytes: int,
               root: int) -> Request:
        self._check_rank(root)
        return self._spawn_coll(
            self.world.coll.bcast(self._ctx(), buf, offset, nbytes, root),
            "ibcast")

    def igather(self, sendbuf: SimBuffer, recvbuf: Optional[SimBuffer],
                count: int, root: int) -> Request:
        self._check_rank(root)
        return self._spawn_coll(
            self.world.coll.gather(self._ctx(), sendbuf, recvbuf, count, root),
            "igather")

    def iallgather(self, sendbuf: SimBuffer, recvbuf: SimBuffer,
                   count: int) -> Request:
        return self._spawn_coll(
            self.world.coll.allgather(self._ctx(), sendbuf, recvbuf, count),
            "iallgather")

    def ialltoall(self, sendbuf: SimBuffer, recvbuf: SimBuffer,
                  count: int) -> Request:
        return self._spawn_coll(
            self.world.coll.alltoall(self._ctx(), sendbuf, recvbuf, count),
            "ialltoall")

    def ibarrier(self) -> Request:
        return self._spawn_coll(self.world.coll.barrier(self._ctx()),
                                "ibarrier")

    def _check_v(self, counts: list[int], displs: list[int]) -> None:
        if len(counts) != self.size or len(displs) != self.size:
            raise CommunicatorError(
                f"v-variant counts/displs must have {self.size} entries"
            )
        if any(c < 0 for c in counts):
            raise CommunicatorError("negative count in v-variant")

    # -- communicator management ------------------------------------------------
    def split(self, color: int, key: Optional[int] = None):
        """Collective split (generator); returns this rank's new :class:`Comm`.

        Ranks passing the same ``color`` land in the same new communicator,
        ordered by ``(key, old rank)``.  A ``color`` of ``None`` returns
        ``None`` for that rank (MPI_UNDEFINED).
        """
        ctx = self._ctx()
        key = self.rank if key is None else key
        mine = (color, key, self.rank)
        if self.rank == 0:
            entries = [mine]
            for r in range(1, self.size):
                obj, _st = yield from ctx.recv_obj(r, phase=0)
                entries.append(obj)
            groups: dict[int, list[tuple[int, int]]] = {}
            for c, k, r in entries:
                if c is not None:
                    groups.setdefault(c, []).append((k, r))
            plan: dict[int, tuple[int, list[int]]] = {}
            for c in sorted(groups):
                members = [r for _k, r in sorted(groups[c])]
                cid = self.world.next_cid()
                plan[c] = (cid, members)
            for r in range(1, self.size):
                yield from ctx.send_obj(r, plan, phase=1)
        else:
            yield from ctx.send_obj(0, mine, phase=0)
            plan, _st = yield from ctx.recv_obj(0, phase=1)
        if color is None:
            return None
        cid, members = plan[color]
        world_ranks = [self.world_rank(r) for r in members]
        shared = self.world.get_or_create_comm(cid, world_ranks)
        return Comm(shared, self.proc, members.index(self.rank))

    def dup(self):
        """Collective duplicate (generator); returns the new :class:`Comm`."""
        new = yield from self.split(color=0, key=self.rank)
        return new

    def shrink(self) -> "Comm":
        """This rank's view of the communicator rebuilt over survivors.

        ULFM ``MPI_Comm_shrink``: after catching
        :class:`~repro.errors.RankFailed`, call ``shrink()`` and retry the
        collective on the returned communicator.  Local and cost-free in
        the simulation (the world has global knowledge of the dead set);
        every survivor resolves to the same context id.
        """
        shared = self.world.shrink(self.shared)
        my_world = self.shared.world_ranks[self.rank]
        if my_world not in shared.world_ranks:
            raise CommunicatorError(
                f"rank {self.rank} (world {my_world}) is dead; "
                "cannot shrink from a failed rank")
        return Comm(shared, self.proc, shared.world_ranks.index(my_world))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Comm cid={self.cid} rank={self.rank}/{self.size}>"


class CollCtx:
    """Per-collective-call context handed to component implementations.

    Provides tag-isolated point-to-point helpers (``phase`` separates
    internal rounds), access to the machine substrate, and the shared-memory
    bulletin board used by KNEM collectives for cookie exchange.
    """

    __slots__ = ("comm", "seq", "phase_offset")

    def __init__(self, comm: Comm, seq: int, phase_offset: int = 0):
        self.comm = comm
        self.seq = seq
        self.phase_offset = phase_offset

    def sub(self, phase_offset: int) -> "CollCtx":
        """A view of this context with a phase namespace offset, so composed
        collectives (e.g. AllGather = Gather + Bcast) cannot collide tags."""
        return CollCtx(self.comm, self.seq, self.phase_offset + phase_offset)

    # -- shorthands ----------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def proc(self) -> "Proc":
        return self.comm.proc

    @property
    def machine(self):
        return self.comm.world.machine

    @property
    def stack(self):
        return self.comm.world.stack

    @property
    def cache(self) -> dict:
        return self.comm.shared.coll_cache

    def tag(self, phase: int = 0) -> tuple:
        return ("coll", self.seq, self.phase_offset + phase)

    # -- tag-scoped p2p --------------------------------------------------------
    def send(self, dest, buf, offset, nbytes, phase: int = 0):
        yield from self.comm.send(dest, buf, offset, nbytes, tag=self.tag(phase))

    def recv(self, source, buf, offset, nbytes, phase: int = 0):
        status = yield from self.comm.recv(source, buf, offset, nbytes,
                                           tag=self.tag(phase))
        return status

    def isend(self, dest, buf, offset, nbytes, phase: int = 0) -> Request:
        return self.comm.isend(dest, buf, offset, nbytes, tag=self.tag(phase))

    def irecv(self, source, buf, offset, nbytes, phase: int = 0) -> Request:
        return self.comm.irecv(source, buf, offset, nbytes, tag=self.tag(phase))

    def send_obj(self, dest, obj, phase: int = 0):
        yield from self.comm.send_obj(dest, obj, tag=self.tag(phase))

    def isend_obj(self, dest, obj, phase: int = 0) -> Request:
        return self.comm.isend_obj(dest, obj, tag=self.tag(phase))

    def recv_obj(self, source, phase: int = 0):
        result = yield from self.comm.recv_obj(source, tag=self.tag(phase))
        return result

    def sendrecv(self, dest, sendbuf, send_off, send_n, source, recvbuf,
                 recv_off, recv_n, phase: int = 0):
        status = yield from self.comm.sendrecv(
            dest, sendbuf, send_off, send_n, source, recvbuf, recv_off, recv_n,
            tag=self.tag(phase),
        )
        return status

    # -- shared-memory board + barrier helpers -------------------------------------
    def board_post(self, value: Any):
        """Publish a value on the communicator's shared board (one shm store)."""
        self.comm.shared.board[(self.seq, self.rank)] = value
        yield self.machine.sim.timeout(self.machine.shm.costs.mailbox_write)

    def board_get(self, rank: int) -> Any:
        """Read another rank's board entry (call only after a barrier)."""
        try:
            return self.comm.shared.board[(self.seq, rank)]
        except KeyError:
            raise CommunicatorError(
                f"board entry for rank {rank} (seq {self.seq}) not posted; "
                "synchronize with a barrier before board_get()"
            ) from None

    def dissemination_barrier(self, phase_base: int = 900):
        """Log2-round dissemination barrier over control messages."""
        n = self.size
        if n == 1:
            return
        round_no = 0
        dist = 1
        while dist < n:
            dest = (self.rank + dist) % n
            src = (self.rank - dist) % n
            sreq = self.comm.isend_obj(dest, None, tag=self.tag(phase_base + round_no))
            _obj, _st = yield from self.recv_obj(src, phase=phase_base + round_no)
            yield sreq.event
            dist <<= 1
            round_no += 1
