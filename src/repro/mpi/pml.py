"""Point-to-point messaging layer (PML).

Protocol selection per message, mirroring the transports the paper compares:

========================  =====================================================
size / kind               protocol
========================  =====================================================
object or <= inline       **inline eager** — payload rides in the envelope
                          (a cache-line write into the peer's mailbox);
<= eager_limit            **eager** — sender copies into a shared temp buffer
                          homed on the receiver's domain, receiver copies out
                          on match (the classic double copy);
>  eager_limit, SM BTL    **SM rendezvous** — pipelined double copy through
                          the per-pair FIFO (fragment-sized slots, slot
                          backpressure, sender+receiver overlap);
>= knem_threshold and     **KNEM rendezvous** — sender registers the buffer,
   the stack has the          passes the cookie out-of-band, the *receiver*
   SM/KNEM BTL                performs one in-kernel copy, FIN, deregister.
========================  =====================================================

Note the KNEM point-to-point protocol registers the send buffer *per
message* — sending the same buffer to N peers costs N registrations and N
cookie exchanges.  That is precisely the overhead the paper's collective
component eliminates with persistent regions (Section III-A), and our
KNEM-Coll bypasses this layer for data movement exactly like the real one.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, TYPE_CHECKING

from repro.errors import FaultInjected, MpiError, TruncationError
from repro.hardware.memory import SimBuffer
from repro.kernel.knem import PROT_READ
from repro.mpi.envelope import EAGER, FIN, RETX, RTS_KNEM, RTS_SM, Envelope, make_fin
from repro.mpi.matching import ANY_SOURCE, MatchEngine, PostedRecv
from repro.mpi.status import Request, Status
from repro.simtime.core import _NO_CBS, PENDING, Event, Timeout
from repro.simtime.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import Proc, World

__all__ = ["PmlEndpoint"]

_NO_OBJECT = object()

#: Nominal wire size charged for an object-mode (control) message.
OBJECT_NBYTES = 8

#: Happens-before tokens pairing ``mpi.send``/``mpi.recv`` trace records
#: (one per point-to-point message, machine-wide).
_hb_seq = itertools.count(1)


class _Fin(Event):
    """A rendezvous send's wait for its FIN, named ``fin:<seq>`` only when
    a diagnostic reads the name."""

    __slots__ = ("seq",)

    def __init__(self, sim, seq: int):
        self.sim = sim
        self.callbacks = _NO_CBS
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._abandoned = False
        self._pwait = None
        self.seq = seq

    @property
    def name(self) -> str:
        return f"fin:{self.seq}"


class PmlEndpoint:
    """One per process: owns the mailbox, matching state, and progress loop."""

    def __init__(self, proc: "Proc", world: "World"):
        self.proc = proc
        self.world = world
        self.machine = world.machine
        self.sim = world.machine.sim
        self.tracer = world.machine.tracer
        self.stack = world.stack
        self.mailbox = world.machine.shm.mailbox(proc.core,
                                                 f"mbox:pml{proc.rank}")
        self.engines: dict[int, MatchEngine] = {}
        self._fin_waiters: dict[int, Any] = {}
        # Receives parked on a NACKed KNEM rendezvous, keyed by the sender's
        # envelope seq; resumed when the RETX retransmission arrives.
        self._retx_waiters: dict[int, Any] = {}
        # Per-destination injection ordering: MPI forbids messages between
        # one (sender, receiver, communicator) pair from overtaking, but
        # concurrent isend protocol engines could otherwise post envelopes
        # out of program order (e.g. a small segment finishing registration
        # before a large one).  Tickets are taken synchronously in program
        # order and chained.
        self._send_order: dict[int, Any] = {}
        #: dest world rank -> the names of the (ordering ticket, isend
        #: process) toward it, built on the first send to that peer
        self._peer_names: dict[int, tuple[str, str]] = {}
        self._deliver_name = f"deliver[{proc.rank}]"
        # A single-threaded MPI process performs one memcpy/ioctl at a time:
        # concurrent protocol engines (isends, matched deliveries) interleave
        # their copies on this per-process CPU lock rather than running as
        # genuinely parallel streams.
        from repro.simtime.primitives import Semaphore

        self.cpu = Semaphore(world.machine.sim, 1, name=f"cpu[{proc.rank}]")
        self.sent_messages = 0
        self.received_messages = 0
        self._daemon = self.sim.process(self._progress(),
                                        name=f"pml[{proc.rank}]",
                                        daemon=True, owner=proc.rank)

    def close(self) -> None:
        """End the progress daemon and drop the references up to the
        process and its world (part of :meth:`Job.close`)."""
        self._daemon.close()
        self.proc = self.world = None

    def _cpu_copy(self, event_factory):
        """Run one copy (given as a zero-arg factory returning the completion
        event) while holding this process's CPU."""
        yield self.cpu.acquire()
        try:
            yield event_factory()
        finally:
            self.cpu.release()

    def _name_peer(self, dest_world: int) -> tuple[str, str]:
        """Build (once per peer) the names of the ordering tickets and
        isend processes toward ``dest_world``."""
        pair = f"{self.proc.rank}->{dest_world}"
        names = self._peer_names[dest_world] = (f"sendorder[{pair}]",
                                                f"isend[{pair}]")
        return names

    # ------------------------------------------------------------------ send
    def send(
        self,
        cid: int,
        src_rank: int,
        dest_world: int,
        tag: Any,
        buf: Optional[SimBuffer] = None,
        offset: int = 0,
        nbytes: int = 0,
        obj: Any = _NO_OBJECT,
    ):
        """Build the send protocol generator.

        The per-destination ordering ticket is taken *here*, synchronously,
        so calls made in program order inject envelopes in program order
        even when the protocols themselves run concurrently (isend).  The
        ``mpi.send`` happens-before trace record is emitted here too, so it
        lands at the *call site* in the sender's program order (isend
        protocols run later, as child processes).
        """
        names = (self._peer_names.get(dest_world)
                 or self._name_peer(dest_world))
        order = self._send_order
        mine = Event(self.sim, names[0])
        ticket = (order.get(dest_world), mine)
        order[dest_world] = mine
        hb = next(_hb_seq)
        tr = self.tracer
        if tr.enabled:
            tr.emit("mpi.send", src=self.proc.rank, dst=dest_world, hb=hb)
        else:
            tr.counters["mpi.send"] += 1
        return self._send_impl(ticket, cid, src_rank, dest_world, tag, buf,
                               offset, nbytes, obj, hb)

    def _retire_ticket(self, ticket) -> None:
        """Vacate an ordering slot whose send died before posting.

        A killed send (rank crash, collective abort) that never posted its
        envelope would otherwise gate every later send to the same peer
        forever.  The slot is released only once the predecessor
        has posted, so live sends can never overtake each other through a
        dead one.
        """
        prev, mine = ticket
        if mine.triggered:
            return
        if prev is None or prev.processed:
            mine.succeed(None)
        else:
            prev.add_callback(
                lambda _ev: None if mine.triggered else mine.succeed(None))

    def _send_impl(self, ticket, cid, src_rank, dest_world, tag, buf, offset,
                   nbytes, obj, hb):
        """Blocking send (generator).  Object mode when ``obj`` is given.

        An object or inline message is sent from this one frame: the
        software overhead, the ordered injection and the mailbox store.
        Larger messages hand over to their protocol after the overhead.
        """
        self.sent_messages += 1
        stack = self.stack
        try:
            if obj is not _NO_OBJECT:
                yield Timeout(self.sim, stack.sw_send_eager)
                nbytes, payload, is_object = OBJECT_NBYTES, obj, True
            else:
                if buf is None:
                    raise MpiError("buffer send requires a SimBuffer")
                buf.check_range(offset, nbytes)
                if nbytes <= stack.eager_limit:
                    yield Timeout(self.sim, stack.sw_send_eager)
                else:
                    yield Timeout(self.sim, stack.sw_send_rndv)
                if nbytes > stack.inline_limit:
                    if nbytes <= stack.eager_limit:
                        protocol = self._send_eager
                    elif stack.use_knem_btl and nbytes >= stack.knem_threshold:
                        protocol = self._send_knem
                    else:
                        protocol = self._send_sm
                    yield from protocol(ticket, cid, src_rank, dest_world,
                                        tag, buf, offset, nbytes, hb)
                    self._emit_send_done(hb)
                    return
                payload = (bytes(buf.data[offset: offset + nbytes])
                           if buf.backed else None)
                is_object = False
            env = Envelope(kind=EAGER, cid=cid, src=src_rank, tag=tag,
                           nbytes=nbytes, payload=payload,
                           reply_to=self.proc.rank, is_object=is_object, hb=hb)
            # _post_ordered's injection, inline: the envelope is the message.
            prev, mine = ticket
            if prev is not None and not prev.processed:
                yield prev
            tr = self.tracer
            if tr.enabled:
                tr.emit("mpi.inject", src=self.proc.rank, hb=hb)
            else:
                tr.counters["mpi.inject"] += 1
            box = self.world.procs[dest_world].pml.mailbox
            yield box.store(self.proc.core)
            box.deliver(self.proc.core, env)
            mine.succeed(None)
            self._emit_send_done(hb)
        finally:
            # Normal completion already posted; an unwound send vacates
            # its ordering slot instead.
            if ticket[1]._value is PENDING:
                self._retire_ticket(ticket)

    def _emit_send_done(self, hb: int) -> None:
        tr = self.tracer
        if tr.enabled:
            tr.emit("mpi.send_done", src=self.proc.rank, hb=hb)
        else:
            tr.counters["mpi.send_done"] += 1

    def _post_ordered(self, ticket, peer: "PmlEndpoint", env: Envelope):
        """Post the envelope once every earlier send to this peer posted."""
        prev, mine = ticket
        if prev is not None and not prev.processed:
            yield prev
        # HB edge payload: the envelope carries the sender's history up to
        # this instant — notably a KNEM region registered by the protocol
        # *after* the call-site ``mpi.send`` record (the cookie rides in this
        # very envelope, so it is visible to the matching receiver).
        tr = self.tracer
        if tr.enabled:
            tr.emit("mpi.inject", src=self.proc.rank, hb=env.hb)
        else:
            tr.counters["mpi.inject"] += 1
        box = peer.mailbox
        yield box.store(self.proc.core)
        box.deliver(self.proc.core, env)
        mine.succeed(None)

    def _send_eager(self, ticket, cid, src_rank, dest_world, tag, buf,
                    offset, nbytes, hb=-1):
        peer = self.world.endpoint(dest_world)
        temp = self.machine.mem.alloc(
            nbytes,
            self.machine.spec.core_domain(peer.proc.core),
            label=f"eager[{self.proc.rank}->{dest_world}]",
            backed=buf.backed,
        )
        yield from self._cpu_copy(lambda: self.machine.mem.copy(
            self.proc.core, buf, offset, temp, 0, nbytes, label="eager-in"))
        env = Envelope(kind=EAGER, cid=cid, src=src_rank, tag=tag,
                       nbytes=nbytes, carrier=temp, reply_to=self.proc.rank,
                       hb=hb)
        yield from self._post_ordered(ticket, peer, env)

    def _send_sm(self, ticket, cid, src_rank, dest_world, tag, buf, offset,
                 nbytes, hb=-1):
        peer = self.world.endpoint(dest_world)
        fifo = self.machine.shm.fifo(
            self.proc.core, peer.proc.core,
            fragment_size=self.stack.fifo_fragment,
            n_slots=self.stack.fifo_slots,
        )
        # One message at a time per pair: fragments of interleaved messages
        # would be indistinguishable in the slot stream.
        yield fifo.tx_lock.acquire()
        epoch = fifo.tx_lock.epoch
        try:
            env = Envelope(kind=RTS_SM, cid=cid, src=src_rank, tag=tag,
                           nbytes=nbytes, carrier=fifo, reply_to=self.proc.rank,
                           hb=hb)
            fin = _Fin(self.sim, env.seq)
            self._fin_waiters[env.seq] = fin
            yield from self._post_ordered(ticket, peer, env)
            if buf.backed:
                fifo.buffer.back()
            done = 0
            while done < nbytes:
                frag = min(self.stack.fifo_fragment, nbytes - done)
                slot = yield fifo.acquire_slot()
                if fifo.sanitizer is not None:
                    fifo.sanitizer.note_acquire(fifo, slot)
                yield from self._cpu_copy(lambda done=done, slot=slot, frag=frag:
                                          self.machine.mem.copy(
                    self.proc.core, buf, offset + done,
                    fifo.buffer, fifo.slot_offset(slot), frag, label="fifo-in",
                ))
                fifo.publish(slot, frag)
                done += frag
            # Completion when the receiver drained the last fragment, so the
            # FIFO is reusable by the next sender immediately afterwards.
            yield fin
        finally:
            # A rank failure may have force-reclaimed this FIFO while we
            # held the lock; the unit was already returned by reset() then,
            # and releasing it again would over-fill the semaphore.
            if fifo.tx_lock.epoch == epoch:
                fifo.tx_lock.release()

    def _send_knem(self, ticket, cid, src_rank, dest_world, tag, buf, offset,
                   nbytes, hb=-1):
        knem = self.machine.knem
        if knem.health.disqualified:
            yield from self._send_sm(ticket, cid, src_rank, dest_world, tag,
                                     buf, offset, nbytes, hb)
            return
        cookie = None
        for _attempt in (0, 1):
            try:
                cookie = yield from knem.create_region(
                    self.proc.core, buf, offset, nbytes, PROT_READ)
                break
            except FaultInjected:
                continue
        if cookie is None:
            # Registration failed twice: degrade this message to the
            # copy-in/copy-out path.  The same ordering ticket is reused,
            # so the fallback cannot overtake earlier sends to this peer.
            knem.health.note_failure("p2p-register", self.proc.core)
            yield from self._send_sm(ticket, cid, src_rank, dest_world, tag,
                                     buf, offset, nbytes, hb)
            return
        knem.health.note_success()
        try:
            env = Envelope(kind=RTS_KNEM, cid=cid, src=src_rank, tag=tag,
                           nbytes=nbytes, payload=cookie,
                           reply_to=self.proc.rank, hb=hb)
            fin = _Fin(self.sim, env.seq)
            self._fin_waiters[env.seq] = fin
            peer = self.world.endpoint(dest_world)
            yield from self._post_ordered(ticket, peer, env)
            nacked = yield fin
            yield from knem.destroy_region_safe(self.proc.core, cookie)
        finally:
            # No-op after the destroy above; reclaims the region when the
            # job aborts while this send is in flight (generator closed).
            knem.reclaim(self.proc.core, cookie)
        if nacked:
            # The receiver's in-kernel copy failed: retransmit eager-style
            # through a shared temp buffer.  The RETX bypasses matching (the
            # receiver holds its posted recv open, keyed by our seq), so the
            # FIFO tx ordering invariant is untouched.
            temp = self.machine.mem.alloc(
                nbytes,
                self.machine.spec.core_domain(peer.proc.core),
                label=f"retx[{self.proc.rank}->{dest_world}]",
                backed=buf.backed,
            )
            yield from self._cpu_copy(lambda: self.machine.mem.copy(
                self.proc.core, buf, offset, temp, 0, nbytes,
                label="retx-in"))
            retx = Envelope(kind=RETX, cid=cid, src=src_rank, tag=tag,
                            nbytes=nbytes, payload=env.seq, carrier=temp,
                            reply_to=self.proc.rank, hb=hb)
            box = peer.mailbox
            yield box.store(self.proc.core)
            box.deliver(self.proc.core, retx)

    # ------------------------------------------------------------------ recv
    def post_recv(self, cid, source, tag, buf=None, offset=0, nbytes=0,
                  want_object=False) -> Request:
        """Non-blocking receive post; returns the request (a blocking
        receive yields it)."""
        req = Request(self.sim, "recv")
        tr = self.tracer
        if tr.enabled:
            src_world = (None if source == ANY_SOURCE
                         else self.world.comm_world_rank(cid, source))
            tr.emit("mpi.recv_post", rank=self.proc.rank,
                    src=src_world, req=req.id)
        else:
            tr.counters["mpi.recv_post"] += 1
        posted = PostedRecv(source, tag, buf, offset, nbytes, req, want_object)
        engine = self.engines.get(cid)
        if engine is None:
            engine = self.engines[cid] = MatchEngine()
        env = engine.post(posted)
        if env is not None:
            Process(self.sim, self._deliver(env, posted), self._deliver_name,
                    False, self.proc.rank)
        return req

    def isend(self, cid, src_rank, dest_world, tag, buf=None, offset=0,
              nbytes=0, obj: Any = _NO_OBJECT) -> Request:
        """Non-blocking send: runs the send protocol as a child process."""
        req = Request(self.sim, "send")
        # send() takes the ordering ticket, and names the peer on first use
        gen = self.send(cid, src_rank, dest_world, tag, buf, offset, nbytes,
                        obj)
        child = Process(self.sim, gen, self._peer_names[dest_world][1],
                        False, self.proc.rank)
        # A fresh process has no callbacks yet: no copy-on-write check.
        child.callbacks = [req.follow]
        return req

    # ---------------------------------------------------------------- engine
    def _progress(self):
        """The progress daemon: routes envelopes arriving in the mailbox."""
        while True:
            env: Envelope = yield self.mailbox.recv()
            if env.kind == FIN:
                waiter = self._fin_waiters.pop(env.payload, None)
                if waiter is None:
                    raise MpiError(f"unmatched FIN for send seq {env.payload}")
                # HB edge: the receiver's copy completion happens-before
                # anything the sender does after its blocking send returns.
                tr = self.tracer
                if tr.enabled:
                    tr.emit("mpi.fin_recv", rank=self.proc.rank,
                            seq=env.payload)
                else:
                    tr.tick("mpi.fin_recv")
                waiter.succeed(env.nack)
                continue
            if env.kind == RETX:
                waiter = self._retx_waiters.pop(env.payload, None)
                if waiter is None:
                    raise MpiError(f"unmatched RETX for send seq {env.payload}")
                waiter.succeed(env)
                continue
            engine = self.engines.get(env.cid)
            if engine is None:
                engine = self.engines[env.cid] = MatchEngine()
            posted = engine.incoming(env)
            if posted is not None:
                # Owned by this rank, like the deliveries post_recv spawns:
                # a crash of the receiver takes its in-flight copies down.
                Process(self.sim, self._deliver(env, posted),
                        self._deliver_name, False, self.proc.rank)

    def _deliver(self, env: Envelope, posted: PostedRecv):
        """Receiver-side data movement for one matched message."""
        self.received_messages += 1
        # The HB join is recorded at *match* time: the envelope (and with it
        # any out-of-band cookie) has reached this rank, so everything the
        # sender did before `mpi.send` is now visible here — including to
        # the in-kernel copy this delivery may be about to perform.
        tr = self.tracer
        if tr.enabled:
            tr.emit("mpi.recv", rank=self.proc.rank,
                    src_comm=env.src, hb=env.hb,
                    req=posted.request.id)
        else:
            tr.counters["mpi.recv"] += 1
        if not env.is_object and posted.buf is not None and env.nbytes > posted.nbytes:
            exc = TruncationError(
                f"rank {self.proc.rank}: incoming {env.nbytes}B message "
                f"(src={env.src}, tag={env.tag!r}) exceeds posted {posted.nbytes}B"
            )
            posted.request.fail(exc)
            return
        status = Status(env.src, env.tag, env.nbytes,
                        env.payload if env.is_object else None)
        yield Timeout(self.sim, self.stack.sw_recv_eager if env.kind == EAGER
                      else self.stack.sw_recv_rndv)
        if env.kind == EAGER:
            if env.is_object:
                pass  # control message: payload delivered via status
            elif env.carrier is None:
                if (posted.buf is not None and posted.buf.backed
                        and env.payload is not None):
                    import numpy as np

                    posted.buf.data[posted.offset: posted.offset + env.nbytes] = \
                        np.frombuffer(env.payload, dtype=np.uint8)
            else:
                yield from self._cpu_copy(lambda: self.machine.mem.copy(
                    self.proc.core, env.carrier, 0, posted.buf, posted.offset,
                    env.nbytes, label="eager-out",
                ))
        elif env.kind == RTS_SM:
            fifo = env.carrier
            done = 0
            while done < env.nbytes:
                slot, frag, _meta = yield fifo.next_full()
                yield from self._cpu_copy(lambda done=done, slot=slot, frag=frag:
                                          self.machine.mem.copy(
                    self.proc.core, fifo.buffer, fifo.slot_offset(slot),
                    posted.buf, posted.offset + done, frag, label="fifo-out",
                ))
                fifo.release_slot(slot)
                done += frag
            self._send_fin(env)
        elif env.kind == RTS_KNEM:
            knem = self.machine.knem
            copied = False
            yield self.cpu.acquire()
            try:
                for _attempt in (0, 1):
                    try:
                        yield from knem.copy(
                            self.proc.core, env.payload, 0, posted.buf,
                            posted.offset, env.nbytes, write=False,
                        )
                        copied = True
                        break
                    except FaultInjected:
                        continue
            finally:
                self.cpu.release()
            if copied:
                knem.health.note_success()
                self._send_fin(env)
            else:
                # The in-kernel copy failed twice: NACK the FIN so the
                # sender deregisters and retransmits through shared memory,
                # then park until that RETX arrives.
                knem.health.note_failure("p2p-copy", self.proc.core)
                waiter = Event(self.sim, f"retx:{env.seq}")
                self._retx_waiters[env.seq] = waiter
                self._send_fin(env, nack=True)
                retx = yield waiter
                yield from self._cpu_copy(lambda: self.machine.mem.copy(
                    self.proc.core, retx.carrier, 0, posted.buf,
                    posted.offset, env.nbytes, label="retx-out",
                ))
        else:  # pragma: no cover - defensive
            raise MpiError(f"unknown envelope kind {env.kind!r}")
        posted.request.succeed(status)

    def _send_fin(self, env: Envelope, nack: bool = False) -> None:
        tr = self.tracer
        if tr.enabled:
            tr.emit("mpi.fin_send", rank=self.proc.rank, seq=env.seq)
        else:
            tr.tick("mpi.fin_send")
        fin = make_fin(env.cid, env.src, env.seq, nack=nack)
        sender = self.world.endpoint(env.reply_to)
        sender.mailbox.post_nowait(self.proc.core, fin)
