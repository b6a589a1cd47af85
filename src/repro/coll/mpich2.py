"""The MPICH2 collective algorithm set (baseline [4], as of MPICH2 1.3).

Distinctive choices versus Open MPI *tuned* (these differences are visible
in the paper's normalized curves):

- **Broadcast**: binomial below ~12 KB, then the van de Geijn algorithm —
  a binomial *scatter* of the message followed by a *ring allgather* —
  which trades latency for contention-friendly bandwidth;
- **Gather/Scatter**: binomial at every size (MPICH2 has no linear
  switch-over for contiguous data), so large gathers forward big
  aggregates up the tree;
- **Allgather**: recursive doubling for power-of-two communicators below
  512 KB per block, ring otherwise;
- **Alltoall**: pairwise exchange for large messages.
"""

from __future__ import annotations

from typing import Optional

from repro.coll.algorithms import (
    binomial_children,
    export_schedule,
    binomial_parent,
    binomial_subtree_size,
    rank_of,
    vrank_of,
)
from repro.coll.base import BaseColl, register_component
from repro.coll.tuned import TunedColl, _is_pow2
from repro.errors import CollectiveError
from repro.hardware.memory import SimBuffer
from repro.mpi.communicator import CollCtx

__all__ = ["Mpich2Coll"]


@register_component("mpich2")
class Mpich2Coll(TunedColl):
    """MPICH2's decision rules; reuses the shared algorithm pool."""

    # ------------------------------------------------------------- broadcast
    def bcast(self, ctx: CollCtx, buf: SimBuffer, offset: int, nbytes: int,
              root: int):
        """MPICH2's decision function (MPIR_Bcast, MPICH2 1.3):

        - short messages (or tiny communicators): binomial tree;
        - medium messages: scatter + recursive-doubling allgather for
          power-of-two communicators, **binomial for non-power-of-two**
          (this is why MPICH2 struggles at medium sizes on IG's 48 ranks);
        - long messages (>= 512 KB): scatter + ring allgather (van de
          Geijn), regardless of communicator size.
        """
        if ctx.size == 1:
            return
        long_msg = self.tuning.mpich_allgather_ring_min  # 512 KB, as MPICH2
        if nbytes <= self.tuning.mpich_bcast_binomial_max or ctx.size < 8:
            yield from self._bcast_tree(ctx, buf, offset, nbytes, root,
                                        shape="binomial", segsize=0)
        elif nbytes < long_msg and not _is_pow2(ctx.size):
            yield from self._bcast_tree(ctx, buf, offset, nbytes, root,
                                        shape="binomial", segsize=0)
        elif nbytes < long_msg:
            yield from self._bcast_van_de_geijn(ctx, buf, offset, nbytes, root,
                                                allgather="recdbl")
        else:
            yield from self._bcast_van_de_geijn(ctx, buf, offset, nbytes, root,
                                                allgather="ring")

    def _bcast_van_de_geijn(self, ctx: CollCtx, buf: SimBuffer, offset: int,
                            nbytes: int, root: int, allgather: str = "ring"):
        """Binomial scatter of the message, then an allgather of the pieces.

        Pieces live *in place* inside ``buf``: rank ``r`` (in vrank space)
        owns the slice ``[r * piece, ...)``; the scatter walks the binomial
        tree sending each child its subtree's span of slices, then the ring
        allgather circulates every slice to every rank.
        """
        size = ctx.size
        v = vrank_of(ctx.rank, root, size)
        piece = nbytes // size
        remainder = nbytes - piece * size
        # Slice r: [r*piece, +piece), with the remainder on the last slice.
        def span(vr_lo: int, vr_n: int) -> tuple[int, int]:
            lo = vr_lo * piece
            hi = (vr_lo + vr_n) * piece
            if vr_lo + vr_n == size:
                hi += remainder
            return lo, hi - lo

        parent = binomial_parent(v)
        children = binomial_children(v, size)
        sub = binomial_subtree_size(v, size)
        if parent is not None:
            lo, ln = span(v, sub)
            if ln:
                yield from ctx.recv(rank_of(parent, root, size), buf,
                                    offset + lo, ln, phase=0)
        pending = []
        for child in children:
            child_sub = binomial_subtree_size(child, size)
            lo, ln = span(child, child_sub)
            if ln:
                pending.append(ctx.isend(rank_of(child, root, size), buf,
                                         offset + lo, ln, phase=0))
        for req in pending:
            yield req.event
        if allgather == "recdbl":
            # Recursive-doubling allgather of the slices (pow2 sizes only).
            dist, k = 1, 0
            while dist < size:
                partner = v ^ dist
                my_lo, my_ln = span((v // dist) * dist, dist)
                pa_lo, pa_ln = span((partner // dist) * dist, dist)
                yield from ctx.sendrecv(
                    rank_of(partner, root, size), buf, offset + my_lo, my_ln,
                    rank_of(partner, root, size), buf, offset + pa_lo, pa_ln,
                    phase=1 + k,
                )
                dist <<= 1
                k += 1
            return
        # Ring allgather of the slices (vrank ring, in place).
        left = rank_of((v - 1) % size, root, size)
        right = rank_of((v + 1) % size, root, size)
        for step in range(size - 1):
            s_lo, s_ln = span((v - step) % size, 1)
            r_lo, r_ln = span((v - step - 1) % size, 1)
            yield from ctx.sendrecv(
                right, buf, offset + s_lo, s_ln,
                left, buf, offset + r_lo, r_ln, phase=1 + step,
            )

    # ------------------------------------------------------------------ rooted
    def gather(self, ctx: CollCtx, sendbuf: SimBuffer,
               recvbuf: Optional[SimBuffer], count: int, root: int):
        if ctx.size == 1:
            if recvbuf is None:
                raise CollectiveError("gather root requires a receive buffer")
            yield from self._local_copy(ctx, sendbuf, 0, recvbuf, 0, count)
            return
        yield from self._gather_binomial(ctx, sendbuf, recvbuf, count, root)

    def scatter(self, ctx: CollCtx, sendbuf: Optional[SimBuffer],
                recvbuf: SimBuffer, count: int, root: int):
        if ctx.size == 1:
            if sendbuf is None:
                raise CollectiveError("scatter root requires a send buffer")
            yield from self._local_copy(ctx, sendbuf, 0, recvbuf, 0, count)
            return
        yield from self._scatter_binomial(ctx, sendbuf, recvbuf, count, root)

    # ------------------------------------------------------------------- allgather
    def allgather(self, ctx: CollCtx, sendbuf: SimBuffer, recvbuf: SimBuffer,
                  count: int):
        if ctx.size == 1:
            yield from self._local_copy(ctx, sendbuf, 0, recvbuf, 0, count)
            return
        if count < self.tuning.mpich_allgather_ring_min and _is_pow2(ctx.size):
            yield from self._allgather_recursive_doubling(ctx, sendbuf,
                                                          recvbuf, count)
        else:
            yield from self._allgather_ring(ctx, sendbuf, recvbuf, count)

    # --------------------------------------------------------------------- alltoall
    def alltoall(self, ctx: CollCtx, sendbuf: SimBuffer, recvbuf: SimBuffer,
                 count: int):
        if ctx.size == 1 or count < 256:
            yield from BaseColl.alltoall(self, ctx, sendbuf, recvbuf, count)
            return
        yield from self._alltoall_pairwise(ctx, sendbuf, recvbuf, count)


# Cross-rank copies are the pml's KNEM rendezvous, which is receiver-reading.
export_schedule("mpich2", "bcast", direction="read",
                description="binomial, then van de Geijn scatter+allgather")
export_schedule("mpich2", "scatter", direction="read",
                description="binomial at every size")
export_schedule("mpich2", "gather", direction="read",
                description="binomial at every size")
export_schedule("mpich2", "allgather", direction="read",
                description="recursive doubling below 512 KiB (pow2) or ring")
export_schedule("mpich2", "alltoall", direction="read",
                description="pairwise exchange above 256-byte blocks")
