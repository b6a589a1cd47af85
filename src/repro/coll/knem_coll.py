"""KNEM-Coll: the paper's collective component (Section V).

Data movement never goes through point-to-point primitives; the component
calls the KNEM driver directly, using shared memory "only as an out of band
channel for synchronization or delivering cookies":

- **Broadcast** — root registers its buffer once (persistent region), the
  cookie is distributed out-of-band, every receiver's core performs its own
  in-kernel copy *in parallel* (receiver-reading).  On NUMA machines a
  two-level topology-aware tree with segment pipelining is used (Figure 1).
- **Scatter** — like Broadcast, but each receiver reads only its slice
  (partial region access; offsets computed from rank and counts).
- **Gather** — direction control: the root registers its *receive* buffer
  as writable and every sender's core writes its slice concurrently
  (sender-writing), removing the root-core serialization.
- **AllGather** — a Gather to rank 0 followed by a Broadcast: deliberately
  the paper's simple concatenation, which Section VI-D shows losing up to
  25% to Tuned-KNEM's ring on large NUMA machines.
- **Alltoall(v)** — every rank registers its send buffer, cookies are
  exchanged through a pre-allocated shared-memory array, then each rank
  fetches its blocks receiver-reading with a *rotated* start offset so each
  sender's memory is accessed by exactly one reader at a time (Figure 3).

Messages below 16 KB and unimplemented operations are delegated to the
regular (tuned) component, as in the real implementation.

**Degradation** (when a :class:`~repro.faults.FaultPlan` is armed): every
ioctl is retried once.  A registration that still fails turns the region
owner into a *direct sender* — the :data:`_DIRECT` sentinel rides the normal
cookie channel, and peers receive their data point-to-point instead.  A copy
that still fails makes the reader ask for a point-to-point resend in its
synchronization verdict (:data:`_RESEND`), served by the region owner after
it has collected *all* verdicts.  Either way the collective completes with
the same bytes over the copy-in/copy-out path; it never deadlocks, because
every recovery decision is made by one rank and communicated in-band on the
channels the protocol already uses.  After enough consecutive failures
:class:`~repro.faults.KnemHealth` disqualifies KNEM and each rank locally
stops attempting ioctls (which drives the same in-band degraded protocol).
Regions are force-reclaimed in ``finally`` blocks, so even aborting
collectives leak no cookies.
"""

from __future__ import annotations

from typing import Optional

from repro.coll.algorithms import export_schedule, segments
from repro.coll.base import BaseColl, register_component
from repro.coll.hierarchy import RelayTree, build_tree, hierarchy_worthwhile
from repro.coll.tuned import TunedColl
from repro.errors import CollectiveError, FaultInjected
from repro.hardware.memory import SimBuffer
from repro.kernel.knem import FLAG_DMA, PROT_READ, PROT_WRITE
from repro.mpi.communicator import CollCtx

__all__ = ["KnemColl"]

# Phase namespace layout (offsets into the per-call tag space).
_PH_COOKIE = 0      # region owner -> peers: region cookie
_PH_SYNC = 1        # peers -> region owner: copy verdict (_OK / _RESEND)
_PH_SEG_READY = 4   # relay -> children: pipelined segment availability
_PH_RESEND = 5      # owner -> degraded peer (or back): the data, p2p
_PH_A2A_STATUS = 7  # alltoallv reader -> owner: copy verdict
_PH_A2A_RESEND = 8  # alltoallv owner -> reader: the block, p2p
_PH_BARRIER_A = 900
_PH_BARRIER_B = 950

#: Cookie-channel sentinel: the owner could not register its region and will
#: move the data point-to-point instead (degraded "direct" mode).
_DIRECT = "knem-direct"

#: Synchronization verdicts, piggybacked on the existing sync messages.
_OK = "ok"
_RESEND = "resend"


@register_component("knem")
class KnemColl(BaseColl):
    """The KNEM collective component."""

    def __init__(self, world):
        super().__init__(world)
        self._fallback = TunedColl(world)
        world.machine.knem.health.fail_limit = self.tuning.knem_fail_limit

    # -- helpers --------------------------------------------------------------
    @property
    def _knem(self):
        return self.world.machine.knem

    def _delegate(self, nbytes: int) -> bool:
        return nbytes < self.tuning.knem_min

    def _hierarchical(self, ctx: CollCtx) -> bool:
        forced = self.tuning.hierarchical
        if forced is not None:
            return forced and ctx.size > 1
        return hierarchy_worthwhile(ctx)

    def _segsize(self, nbytes: int) -> int:
        if not self.tuning.pipeline:
            return nbytes
        if nbytes >= self.tuning.pipeline_large_at:
            return self.tuning.pipeline_seg_large
        return self.tuning.pipeline_seg_intermediate

    # -- degradation helpers --------------------------------------------------
    def _register_or_degrade(self, core: int, buf: SimBuffer, offset: int,
                             nbytes: int, prot: int):
        """Register with one retry; returns the cookie, or None to degrade.

        A disqualified device is not even attempted — the rank-local check
        feeds the same in-band degraded protocol an injected failure would,
        so ranks can never disagree about the message pattern.
        """
        knem = self._knem
        if knem.health.disqualified:
            return None
        for _attempt in (0, 1):
            try:
                cookie = yield from knem.create_region(core, buf, offset,
                                                       nbytes, prot)
            except FaultInjected:
                continue
            knem.health.note_success()
            return cookie
        knem.health.note_failure("coll-register", core)
        return None

    def _copy_or_degrade(self, core: int, cookie, region_off: int,
                         local: SimBuffer, local_off: int, nbytes: int,
                         write: bool, flags: int = 0):
        """In-kernel copy with one retry; True on success, False to degrade."""
        if nbytes == 0:
            return True
        knem = self._knem
        if knem.health.disqualified:
            return False
        for _attempt in (0, 1):
            try:
                yield from knem.copy(core, cookie, region_off, local,
                                     local_off, nbytes, write=write,
                                     flags=flags)
            except FaultInjected:
                continue
            knem.health.note_success()
            return True
        knem.health.note_failure("coll-copy", core)
        return False

    def _release(self, core: int, cookie):
        """Deregister (retrying injected faults; force-reclaim as last resort)."""
        if cookie is not None:
            yield from self._knem.destroy_region_safe(core, cookie)

    # ------------------------------------------------------------- broadcast
    def bcast(self, ctx: CollCtx, buf: SimBuffer, offset: int, nbytes: int,
              root: int):
        if ctx.size == 1:
            return
        if self._delegate(nbytes):
            yield from self._fallback.bcast(ctx, buf, offset, nbytes, root)
            return
        if not self._hierarchical(ctx):
            levels = 1
        elif (self.tuning.hierarchy_levels >= 3
                and ctx.machine.spec.n_boards > 1):
            levels = 3
        else:
            levels = 2
        tree = build_tree(ctx, root, levels, self.tuning.topology_aware)
        yield from self._bcast_relay(ctx, tree, buf, offset, nbytes)

    def _bcast_relay(self, ctx: CollCtx, tree: RelayTree, buf: SimBuffer,
                     offset: int, nbytes: int):
        """One region per relay, every rank pulling from its parent's region.

        The root registers its buffer once and its region holds the whole
        message from the start.  A relay re-exports its own buffer to its
        children and pulls segment by segment, announcing each one as soon
        as it has it, so its children's copies overlap its own (Figure 1).
        A child of the root without children reads the whole message in one
        copy.  On a degraded run the segment flags carry None once a relay
        lost the data; downstream ranks then request a whole-buffer resend
        from their parent.
        """
        knem = self._knem
        core = ctx.proc.core
        root = tree.root
        parent = tree.parent[ctx.rank]
        kids = tree.children[ctx.rank]
        flags = FLAG_DMA if self.tuning.dma_offload else 0
        cookie = None
        try:
            have_data = True
            if parent is not None:
                parent_cookie, _st = yield from ctx.recv_obj(parent,
                                                             phase=_PH_COOKIE)
                have_data = parent_cookie != _DIRECT
            if kids:
                cookie = yield from self._register_or_degrade(
                    core, buf, offset, nbytes, PROT_READ)
            post = _DIRECT if cookie is None else cookie
            reqs = [ctx.isend_obj(kid, post, phase=_PH_COOKIE) for kid in kids]
            if parent == root and not kids:
                if have_data:
                    have_data = yield from self._copy_or_degrade(
                        core, parent_cookie, 0, buf, offset, nbytes, write=False,
                        flags=flags)
            elif parent is not None:
                segs = segments(nbytes, self._segsize(nbytes))
                for seg_index, (seg_off, seg_len) in enumerate(segs):
                    flag = seg_index
                    if parent != root:
                        flag, _st = yield from ctx.recv_obj(
                            parent, phase=_PH_SEG_READY)
                    if have_data and flag is not None:
                        have_data = yield from self._copy_or_degrade(
                            core, parent_cookie, seg_off, buf, offset + seg_off,
                            seg_len, write=False, flags=flags)
                    else:
                        have_data = False
                    # Per-segment availability flags are cheap shared-memory
                    # stores, but they execute on the relay's critical path —
                    # the synchronization cost that makes too-small pipeline
                    # segments lose (Section VI-B).
                    announce = seg_index if have_data else None
                    for kid in kids:
                        yield from ctx.send_obj(kid, announce,
                                                phase=_PH_SEG_READY)
            for req in reqs:
                yield req.event
            resend = []
            for kid in kids:
                verdict, _st = yield from ctx.recv_obj(kid, phase=_PH_SYNC)
                if verdict == _RESEND:
                    resend.append(kid)
            if parent is not None:
                yield from ctx.send_obj(parent, _OK if have_data else _RESEND,
                                        phase=_PH_SYNC)
                if not have_data:
                    yield from ctx.recv(parent, buf, offset, nbytes,
                                        phase=_PH_RESEND)
            for kid in resend:
                yield from ctx.send(kid, buf, offset, nbytes, phase=_PH_RESEND)
            yield from self._release(core, cookie)
        finally:
            if cookie is not None:
                knem.reclaim(core, cookie)

    # ------------------------------------------------------------------- scatter
    def scatterv(self, ctx: CollCtx, sendbuf: Optional[SimBuffer],
                 counts: list[int], displs: list[int], recvbuf: SimBuffer,
                 root: int):
        if self._delegate(max(counts, default=0)):
            yield from self._fallback.scatterv(ctx, sendbuf, counts, displs,
                                               recvbuf, root)
            return
        knem = self._knem
        core = ctx.proc.core
        if ctx.rank == root:
            if sendbuf is None:
                raise CollectiveError("scatter root requires a send buffer")
            cookie = yield from self._register_or_degrade(
                core, sendbuf, 0, sendbuf.size, PROT_READ)
            try:
                post = _DIRECT if cookie is None else cookie
                reqs = [ctx.isend_obj(peer, post, phase=_PH_COOKIE)
                        for peer in range(ctx.size) if peer != root]
                yield from self._local_copy(ctx, sendbuf, displs[root],
                                            recvbuf, 0, counts[root])
                for req in reqs:
                    yield req.event
                resend = []
                for peer in range(ctx.size):
                    if peer == root:
                        continue
                    verdict, _st = yield from ctx.recv_obj(peer, phase=_PH_SYNC)
                    if verdict == _RESEND:
                        resend.append(peer)
                for peer in resend:
                    yield from ctx.send(peer, sendbuf, displs[peer],
                                        counts[peer], phase=_PH_RESEND)
                yield from self._release(core, cookie)
            finally:
                if cookie is not None:
                    knem.reclaim(core, cookie)
        else:
            cookie, _ = yield from ctx.recv_obj(root, phase=_PH_COOKIE)
            nbytes = counts[ctx.rank]
            ok = nbytes == 0
            if not ok and cookie != _DIRECT:
                # Receiver-reading: this rank's core pulls only its slice
                # (partial region access at the slice offset).
                ok = yield from self._copy_or_degrade(
                    core, cookie, displs[ctx.rank], recvbuf, 0, nbytes,
                    write=False)
            yield from ctx.send_obj(root, _OK if ok else _RESEND,
                                    phase=_PH_SYNC)
            if not ok:
                yield from ctx.recv(root, recvbuf, 0, nbytes,
                                    phase=_PH_RESEND)

    # -------------------------------------------------------------------- gather
    def gatherv(self, ctx: CollCtx, sendbuf: SimBuffer,
                recvbuf: Optional[SimBuffer], counts: list[int],
                displs: list[int], root: int):
        if self._delegate(max(counts, default=0)):
            yield from self._fallback.gatherv(ctx, sendbuf, recvbuf, counts,
                                              displs, root)
            return
        if self.tuning.gather_direction_write:
            yield from self._gather_write(ctx, sendbuf, recvbuf, counts,
                                          displs, root)
        else:
            yield from self._gather_root_reads(ctx, sendbuf, recvbuf, counts,
                                               displs, root)

    def _gather_write(self, ctx, sendbuf, recvbuf, counts, displs, root):
        """Direction control: all senders write the root region in parallel."""
        knem = self._knem
        core = ctx.proc.core
        if ctx.rank == root:
            if recvbuf is None:
                raise CollectiveError("gather root requires a receive buffer")
            cookie = yield from self._register_or_degrade(
                core, recvbuf, 0, recvbuf.size, PROT_WRITE)
            try:
                post = _DIRECT if cookie is None else cookie
                reqs = [ctx.isend_obj(peer, post, phase=_PH_COOKIE)
                        for peer in range(ctx.size) if peer != root]
                yield from self._local_copy(ctx, sendbuf, 0, recvbuf,
                                            displs[root], counts[root])
                for req in reqs:
                    yield req.event
                resend = []
                for peer in range(ctx.size):
                    if peer == root:
                        continue
                    verdict, _st = yield from ctx.recv_obj(peer, phase=_PH_SYNC)
                    if verdict == _RESEND:
                        resend.append(peer)
                for peer in resend:
                    yield from ctx.recv(peer, recvbuf, displs[peer],
                                        counts[peer], phase=_PH_RESEND)
                yield from self._release(core, cookie)
            finally:
                if cookie is not None:
                    knem.reclaim(core, cookie)
        else:
            cookie, _ = yield from ctx.recv_obj(root, phase=_PH_COOKIE)
            nbytes = counts[ctx.rank]
            ok = nbytes == 0
            if not ok and cookie != _DIRECT:
                # Sender-writing: this core pushes its block into the root
                # buffer at its displacement, concurrently with every peer.
                ok = yield from self._copy_or_degrade(
                    core, cookie, displs[ctx.rank], sendbuf, 0, nbytes,
                    write=True)
            yield from ctx.send_obj(root, _OK if ok else _RESEND,
                                    phase=_PH_SYNC)
            if not ok:
                yield from ctx.send(root, sendbuf, 0, nbytes,
                                    phase=_PH_RESEND)

    def _gather_root_reads(self, ctx, sendbuf, recvbuf, counts, displs, root):
        """Ablation: no direction control — the root's core does every copy."""
        knem = self._knem
        core = ctx.proc.core
        if ctx.rank == root:
            if recvbuf is None:
                raise CollectiveError("gather root requires a receive buffer")
            cookies = {}
            for peer in range(ctx.size):
                if peer == root:
                    continue
                cookie, _ = yield from ctx.recv_obj(peer, phase=_PH_COOKIE)
                cookies[peer] = cookie
            yield from self._local_copy(ctx, sendbuf, 0, recvbuf,
                                        displs[root], counts[root])
            need: dict[int, bool] = {}
            for peer, cookie in cookies.items():
                ok = counts[peer] == 0
                if not ok and cookie != _DIRECT:
                    ok = yield from self._copy_or_degrade(
                        core, cookie, 0, recvbuf, displs[peer], counts[peer],
                        write=False)
                need[peer] = not ok
            reqs = [ctx.isend_obj(peer, _RESEND if need[peer] else _OK,
                                  phase=_PH_SYNC)
                    for peer in cookies]
            for req in reqs:
                yield req.event
            for peer in cookies:
                if need[peer]:
                    yield from ctx.recv(peer, recvbuf, displs[peer],
                                        counts[peer], phase=_PH_RESEND)
        else:
            cookie = yield from self._register_or_degrade(
                core, sendbuf, 0, counts[ctx.rank], PROT_READ)
            try:
                post = _DIRECT if cookie is None else cookie
                yield from ctx.send_obj(root, post, phase=_PH_COOKIE)
                verdict, _st = yield from ctx.recv_obj(root, phase=_PH_SYNC)
                if verdict == _RESEND:
                    yield from ctx.send(root, sendbuf, 0, counts[ctx.rank],
                                        phase=_PH_RESEND)
                yield from self._release(core, cookie)
            finally:
                if cookie is not None:
                    knem.reclaim(core, cookie)

    # ------------------------------------------------------------------- allgather
    def allgatherv(self, ctx: CollCtx, sendbuf: SimBuffer, recvbuf: SimBuffer,
                   counts: list[int], displs: list[int]):
        if self._delegate(max(counts, default=0)):
            yield from self._fallback.allgatherv(ctx, sendbuf, recvbuf,
                                                 counts, displs)
            return
        # The paper's simple assembly: Gather to rank 0, then Broadcast of
        # the assembled buffer (Section V-C) — knowingly root-bottlenecked.
        total = max((d + c for d, c in zip(displs, counts)), default=0)
        yield from self.gatherv(ctx.sub(0), sendbuf, recvbuf, counts, displs,
                                root=0)
        yield from self.bcast(ctx.sub(100), recvbuf, 0, total, root=0)

    # --------------------------------------------------------------------- alltoall
    def alltoallv(self, ctx: CollCtx, sendbuf: SimBuffer,
                  send_counts: list[int], send_displs: list[int],
                  recvbuf: SimBuffer, recv_counts: list[int],
                  recv_displs: list[int]):
        if self._delegate(max(send_counts, default=0)):
            yield from self._fallback.alltoallv(
                ctx, sendbuf, send_counts, send_displs,
                recvbuf, recv_counts, recv_displs,
            )
            return
        knem = self._knem
        core = ctx.proc.core
        me, size = ctx.rank, ctx.size
        # Armed-ness is machine-global and fixed for the job, so every rank
        # takes the same branch at the recovery gates below.
        plan_armed = knem.fault_plan is not None
        cookie = yield from self._register_or_degrade(
            core, sendbuf, 0, sendbuf.size, PROT_READ)
        try:
            # Cookie exchange through the pre-allocated shared-memory array
            # (an out-of-band AllGather over shared memory, not KNEM).  A
            # degraded owner posts None: every peer sees it and posts a
            # matching receive, so the owner can serve its blocks directly.
            yield from ctx.board_post((cookie, tuple(send_counts),
                                       tuple(send_displs)))
            yield from ctx.dissemination_barrier(_PH_BARRIER_A)
            direct_reqs = []
            if cookie is None:
                direct_reqs = [
                    ctx.isend(peer, sendbuf, send_displs[peer],
                              send_counts[peer], phase=_PH_A2A_RESEND)
                    for peer in range(size)
                    if peer != me and send_counts[peer]
                ]
            yield from self._local_copy(ctx, sendbuf, send_displs[me],
                                        recvbuf, recv_displs[me],
                                        recv_counts[me])
            order = (range(1, size) if self.tuning.rotate_alltoall
                     else [p for p in range(size) if p != me])
            peers = [((me + step) % size if self.tuning.rotate_alltoall
                      else step) for step in order]
            failed_reads = []
            for peer in peers:
                peer_cookie, peer_counts, peer_displs = ctx.board_get(peer)
                if peer_counts[me] != recv_counts[peer]:
                    raise CollectiveError(
                        f"alltoallv count mismatch: rank {peer} sends "
                        f"{peer_counts[me]}B, rank {me} expects "
                        f"{recv_counts[peer]}B"
                    )
                nbytes = recv_counts[peer]
                if peer_cookie is None:
                    if nbytes:
                        yield from ctx.recv(peer, recvbuf, recv_displs[peer],
                                            nbytes, phase=_PH_A2A_RESEND)
                    continue
                ok = yield from self._copy_or_degrade(
                    core, peer_cookie, peer_displs[me], recvbuf,
                    recv_displs[peer], nbytes, write=False)
                if not ok:
                    failed_reads.append(peer)
            if plan_armed:
                # Pairwise verdict exchange between readers and owners whose
                # regions were live; owners then retransmit failed blocks.
                # All data sends are isends: two mutually-degraded ranks
                # must not face each other with blocking rendezvous sends.
                status_reqs = []
                for peer in peers:
                    peer_cookie, _c, _d = ctx.board_get(peer)
                    if peer_cookie is not None:
                        verdict = _RESEND if peer in failed_reads else _OK
                        status_reqs.append(
                            ctx.isend_obj(peer, verdict,
                                          phase=_PH_A2A_STATUS))
                resend_reqs = []
                if cookie is not None:
                    resend_to = []
                    for peer in range(size):
                        if peer == me:
                            continue
                        verdict, _st = yield from ctx.recv_obj(
                            peer, phase=_PH_A2A_STATUS)
                        if verdict == _RESEND:
                            resend_to.append(peer)
                    resend_reqs = [
                        ctx.isend(peer, sendbuf, send_displs[peer],
                                  send_counts[peer], phase=_PH_A2A_RESEND)
                        for peer in resend_to
                    ]
                for peer in failed_reads:
                    yield from ctx.recv(peer, recvbuf, recv_displs[peer],
                                        recv_counts[peer],
                                        phase=_PH_A2A_RESEND)
                for req in status_reqs + resend_reqs:
                    yield req.event
            for req in direct_reqs:
                yield req.event
            yield from ctx.dissemination_barrier(_PH_BARRIER_B)
            yield from self._release(core, cookie)
        finally:
            if cookie is not None:
                knem.reclaim(core, cookie)


export_schedule(
    "knem", "bcast", direction="read", concurrent=True,
    description="receiver-reading single-copy broadcast (flat / hierarchical)",
    variants={"multilevel": {"hierarchy_levels": 3},
              "flat": {"hierarchical": False}})
export_schedule(
    "knem", "scatter", direction="read", concurrent=True,
    description="receivers read their slice of the root region")
export_schedule(
    "knem", "gather", direction="write", concurrent=True,
    description="sender-writing gather into the root's writable region",
    variants={"root-reads": {"gather_direction_write": False}})
export_schedule(
    "knem", "allgather", direction="mixed", concurrent=True,
    description="gather to rank 0 followed by broadcast")
export_schedule(
    "knem", "alltoallv", direction="read", concurrent=True,
    description="rotated receiver-reading exchange over boarded cookies",
    variants={"unrotated": {"rotate_alltoall": False}})
export_schedule(
    "knem", "barrier", direction="mixed",
    description="dissemination barrier over out-of-band messages")
