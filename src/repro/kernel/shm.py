"""Shared-memory segments: mailboxes and FIFO fragment pools.

Two distinct uses, matching the two roles shared memory plays in the paper:

1. **Mailboxes** carry small control messages (match headers, KNEM cookies,
   synchronization flags).  Their cost is a cache-line ping between cores —
   a latency that grows with topological distance — not a bandwidth cost.
   The KNEM collective component uses the SM BTL "only as an out of band
   channel for synchronization or delivering cookies" (Section V-A).

2. **FIFO segments** are the pre-allocated exchange zones of the
   copy-in/copy-out transport (Open MPI SM BTL / MPICH2 Nemesis).  Each is
   a :class:`~repro.hardware.memory.SimBuffer` homed on a memory domain, so
   copies through it consume memory bandwidth twice and pollute caches —
   the effect the paper identifies as the core drawback of the double-copy
   approach.  A segment gets real bytes only when a backed payload first
   passes through it; timing-only traffic never allocates them, and
   backing never changes a simulated time.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import ShmError
from repro.faults.plan import FaultPlan
from repro.hardware.memory import MemorySystem, SimBuffer
from repro.hardware.spec import MachineSpec
from repro.kernel.costs import KernelCosts
from repro.simtime.core import Event, Simulator, Timeout
from repro.simtime.primitives import Channel, Semaphore
from repro.simtime.trace import Tracer
from repro.units import NS

__all__ = ["mailbox_latency", "Mailbox", "FifoSegment", "ShmWorld"]


def mailbox_latency(spec: MachineSpec, core_a: int, core_b: int) -> float:
    """Cache-line transfer latency between two cores.

    Calibrated to era-typical core-to-core latencies: ~60 ns within a shared
    cache, ~120 ns across sockets in one coherence domain, plus the NUMA
    link latency when domains differ (doubled for the request/response pair
    of a coherence miss).  It depends only on the machine and the two
    cores, so mailboxes read it from the spec's :func:`latency_table` and a
    :class:`FifoSegment` computes it once.
    """
    if core_a == core_b:
        return 20 * NS
    sa, sb = spec.core_socket(core_a), spec.core_socket(core_b)
    if sa == sb:
        return 60 * NS
    da, db = spec.core_domain(core_a), spec.core_domain(core_b)
    if da == db:
        return 120 * NS
    hop = 150 * NS
    return 120 * NS + 2 * hop * (1 + abs(spec.socket_board[sa] - spec.socket_board[sb]))


#: MachineSpec -> {(sender core, owner core): mailbox latency}.  Keyed on
#: the frozen spec like the topology memos, so an entry never goes stale.
_LATENCY_TABLES: dict[MachineSpec, dict[tuple[int, int], float]] = {}


def latency_table(spec: MachineSpec) -> dict[tuple[int, int], float]:
    """The memo of :func:`mailbox_latency` for ``spec`` (filled lazily).

    Hashing a spec costs microseconds, so a :class:`ShmWorld` looks its
    table up once and hands it to every mailbox it creates.
    """
    table = _LATENCY_TABLES.get(spec)
    if table is None:
        table = _LATENCY_TABLES[spec] = {}
    return table


class Mailbox:
    """A small-message channel into one process (control traffic only).

    A post is two calls from the sender's own frame: ``yield
    box.store(core)`` charges the sender the store cost, then
    ``box.deliver(core, payload)`` lands the payload after the core-to-core
    latency.  ``recv`` blocks the receiver until a message is available
    (the poll granularity models the MPI progression loop's busy-wait).
    """

    def __init__(self, sim: Simulator, spec: MachineSpec, owner_core: int,
                 costs: KernelCosts,
                 latencies: dict[tuple[int, int], float],
                 name: str = "mbox", tracer: Optional[Tracer] = None):
        self.sim = sim
        self.spec = spec
        self.owner_core = owner_core
        self.costs = costs
        self.name = name
        self.tracer = tracer or Tracer()
        self._channel = Channel(sim, name=name)
        #: the spec's :func:`latency_table`
        self._latencies = latencies
        self.posted = 0

    def _latency_from(self, sender_core: int) -> float:
        key = (sender_core, self.owner_core)
        latency = self._latencies.get(key)
        if latency is None:
            latency = self._latencies[key] = mailbox_latency(
                self.spec, sender_core, self.owner_core)
        return latency

    def _arrive(self, event: Event) -> None:
        self._channel.put(event._value)

    def store(self, sender_core: int) -> Timeout:
        """Sender side, first half of a post: the cache-line store.

        Returns the store's delay for the sender to yield; once it has
        fired, :meth:`deliver` sends the payload on its way.
        """
        self.posted += 1
        tr = self.tracer
        if tr.enabled:
            tr.emit("shm.post", box=self.name, src_core=sender_core,
                    dst_core=self.owner_core)
        else:
            tr.counters["shm.post"] += 1
        return Timeout(self.sim, self.costs.mailbox_write)

    def deliver(self, sender_core: int, payload: Any) -> None:
        """Sender side, second half of a post (after :meth:`store`): the
        payload arrives after the core-to-core latency."""
        arrival = Timeout(self.sim, self._latency_from(sender_core), payload,
                          name=self.name)
        arrival.callbacks = [self._arrive]

    def post_nowait(self, sender_core: int, payload: Any) -> None:
        """Fire-and-forget variant for completion callbacks (no sender cost)."""
        self.posted += 1
        tr = self.tracer
        if tr.enabled:
            tr.emit("shm.post", box=self.name, src_core=sender_core,
                    dst_core=self.owner_core)
        else:
            tr.counters["shm.post"] += 1
        delay = self.costs.mailbox_write + self._latency_from(sender_core)
        arrival = Timeout(self.sim, delay, payload, name=self.name)
        arrival.callbacks = [self._arrive]

    def recv(self) -> Event:
        """Event yielding the next payload (FIFO order)."""
        return self._channel.get()

    def __len__(self) -> int:
        return len(self._channel)


class FifoSegment:
    """A ring of fixed-size fragments shared by one sender-receiver pair.

    The segment's buffer is homed on the **receiver's** memory domain
    (Open MPI's SM BTL maps per-receiver FIFOs, first-touched by the
    receiver).  It starts unbacked; the PML backs it (``SimBuffer.back``)
    before the first fragment of a backed message.  Slot bookkeeping is a
    semaphore: the sender acquires a free slot, copies a fragment in, and
    hands the slot index to the receiver's mailbox; the receiver copies out
    and releases the slot.
    """

    def __init__(
        self,
        mem: MemorySystem,
        spec: MachineSpec,
        costs: KernelCosts,
        sender_core: int,
        receiver_core: int,
        fragment_size: int,
        n_slots: int,
        name: str = "fifo",
        tracer: Optional[Tracer] = None,
    ):
        if fragment_size <= 0 or n_slots <= 0:
            raise ShmError("fragment size and slot count must be positive")
        self.mem = mem
        self.spec = spec
        self.costs = costs
        self.tracer = tracer or mem.tracer
        self.name = name
        self.sender_core = sender_core
        self.receiver_core = receiver_core
        self.fragment_size = fragment_size
        self.n_slots = n_slots
        domain = spec.core_domain(receiver_core)
        self.buffer: SimBuffer = mem.alloc(
            fragment_size * n_slots, domain, label=name, backed=False
        )
        self.free_slots = Channel(mem.sim, name=f"{name}:free")
        for slot in range(n_slots):
            self.free_slots.put(slot)
        self.full_queue = Channel(mem.sim, name=f"{name}:full")
        #: serializes messages through this FIFO (fragments of interleaved
        #: messages would be indistinguishable in the slot stream)
        self.tx_lock = Semaphore(mem.sim, 1, name=f"{name}:tx")
        #: armed :class:`FaultPlan` (None = zero-overhead fast path)
        self.fault_plan: Optional[FaultPlan] = None
        #: armed slot-protocol sanitizer (None = zero-overhead fast path)
        self.sanitizer: Optional[Any] = None
        #: publish-to-visible delay of one fragment
        self._publish_delay = costs.mailbox_write + mailbox_latency(
            spec, sender_core, receiver_core)

    def slot_offset(self, slot: int) -> int:
        if not 0 <= slot < self.n_slots:
            raise ShmError(f"slot {slot} out of range")
        return slot * self.fragment_size

    def acquire_slot(self) -> Event:
        """Sender side: event yielding the index of a free fragment slot.

        With an armed fault plan the acquisition can fail: the returned
        event fails with :class:`~repro.errors.ShmFaultInjected`, thrown
        into the yielding sender.  There is no transport below shared
        memory to degrade to, so SHM faults are fail-fast by design.
        """
        plan = self.fault_plan
        if plan is not None and plan.fire("shm.slot", self.sender_core,
                                          self.fragment_size):
            self.tracer.emit("shm.fault", fifo=self.name, op="slot",
                             src_core=self.sender_core, injected=True)
            ev = Event(self.mem.sim, name=f"{self.name}:slot-fault")
            ev.fail(plan.exception("shm.slot", self.sender_core,
                                   self.fragment_size))
            return ev
        return self.free_slots.get()

    def publish(self, slot: int, nbytes: int, meta: Any = None) -> None:
        """Sender side: make a filled slot visible to the receiver."""
        if self.sanitizer is not None:
            self.sanitizer.note_publish(self, slot, nbytes)
        tr = self.tracer
        if tr.enabled:
            tr.emit("shm.fifo_publish", fifo=self.name, slot=slot,
                    nbytes=nbytes, src_core=self.sender_core,
                    dst_core=self.receiver_core)
        else:
            tr.tick("shm.fifo_publish")
        arrival = Timeout(self.mem.sim, self._publish_delay,
                          (slot, nbytes, meta), name=self.name)
        arrival.callbacks = [self._arrive]

    def _arrive(self, event: Event) -> None:
        self.full_queue.put(event._value)

    def next_full(self) -> Event:
        """Receiver side: event yielding ``(slot, nbytes, meta)``."""
        return self.full_queue.get()

    def release_slot(self, slot: int) -> None:
        """Receiver side: return a drained slot to the sender."""
        if not 0 <= slot < self.n_slots:
            raise ShmError(f"slot {slot} out of range")
        if self.sanitizer is not None:
            self.sanitizer.note_release(self, slot)
        self.free_slots.put(slot)

    @property
    def slots_outstanding(self) -> int:
        """Slots not in the free pool: held by a sender or published."""
        return self.n_slots - len(self.free_slots)

    def reclaim(self) -> int:
        """Reset the segment to pristine state (one endpoint died).

        Models the kernel tearing down the dead process's mapping: every
        in-flight fragment is discarded, the free pool refills to full
        capacity, and the tx serialization lock is released.  Cost-free and
        idempotent.  Blocked slot acquirers are forgotten, not woken — the
        rank-failure path unwinds those processes separately.  Returns the
        number of slots recovered.
        """
        leaked = self.slots_outstanding
        self.full_queue.reset()
        self.free_slots.reset()
        for slot in range(self.n_slots):
            self.free_slots.put(slot)
        self.tx_lock.reset()
        if self.sanitizer is not None:
            self.sanitizer.note_reclaim(self)
        if leaked:
            tr = self.tracer
            if tr.enabled:
                tr.emit("shm.reclaim", fifo=self.name, slots=leaked,
                        src_core=self.sender_core,
                        dst_core=self.receiver_core)
            else:
                tr.tick("shm.reclaim")
        return leaked


class ShmWorld:
    """Factory for mailboxes, registry of per-pair FIFOs on one machine."""

    def __init__(self, sim: Simulator, spec: MachineSpec, mem: MemorySystem,
                 costs: Optional[KernelCosts] = None):
        self.sim = sim
        self.spec = spec
        self.mem = mem
        self.costs = costs or KernelCosts()
        self._latencies = latency_table(spec)
        self._fifos: dict[tuple[int, int], FifoSegment] = {}
        self.fault_plan: Optional[FaultPlan] = None
        self.sanitizer: Optional[Any] = None

    def arm_faults(self, plan: Optional[FaultPlan]) -> None:
        """Arm (or disarm with ``None``) fault injection on every FIFO."""
        self.fault_plan = plan
        for seg in self._fifos.values():
            seg.fault_plan = plan

    def arm_sanitizer(self, sanitizer: Optional[Any]) -> None:
        """Arm (or disarm with ``None``) the slot sanitizer on every FIFO."""
        self.sanitizer = sanitizer
        for seg in self._fifos.values():
            seg.sanitizer = sanitizer

    def mailbox(self, owner_core: int, name: str) -> Mailbox:
        """A new mailbox owned by ``owner_core``.

        Every call makes a fresh one: two jobs on one machine must never
        share a mailbox, or the first job's progress daemon, still parked
        on it, would take the second job's messages.
        """
        return Mailbox(self.sim, self.spec, owner_core, self.costs,
                       self._latencies, name=name, tracer=self.mem.tracer)

    def reclaim_core(self, core: int) -> int:
        """Reset every FIFO with a dead ``core`` endpoint; returns slots freed.

        Deterministic iteration (FIFOs are created in program order) keeps
        the reclamation trace stable across runs.
        """
        recovered = 0
        for (snd, rcv), seg in self._fifos.items():
            if core in (snd, rcv):
                recovered += seg.reclaim()
        return recovered

    @property
    def slots_outstanding(self) -> int:
        """FIFO slots currently not in any free pool (leak accounting)."""
        return sum(seg.slots_outstanding for seg in self._fifos.values())

    def reclaim_all(self) -> int:
        """Reset every FIFO (post-abort quiescence); returns slots freed.

        Only safe when no legitimate transfer is in flight — the job
        launcher calls this after the event queue drained following a rank
        failure, when every surviving fragment belongs to an aborted
        operation.
        """
        return sum(seg.reclaim() for seg in self._fifos.values())

    def fifo(
        self,
        sender_core: int,
        receiver_core: int,
        fragment_size: int = 32 * 1024,
        n_slots: int = 4,
    ) -> FifoSegment:
        """Get-or-create the FIFO from one core to another (lazy, per pair)."""
        key = (sender_core, receiver_core)
        seg = self._fifos.get(key)
        if seg is None:
            seg = FifoSegment(
                self.mem,
                self.spec,
                self.costs,
                sender_core,
                receiver_core,
                fragment_size,
                n_slots,
                name=f"fifo[{sender_core}->{receiver_core}]",
            )
            seg.fault_plan = self.fault_plan
            seg.sanitizer = self.sanitizer
            self._fifos[key] = seg
        return seg
