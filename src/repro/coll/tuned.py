"""The Open MPI *tuned* collective component (baseline [10]).

Implements the algorithm pool and size-based runtime decision rules the
paper describes (Section II): for Broadcast, "a binomial algorithm is used
to deliver small messages, a split binary tree algorithm is selected for
intermediate messages, and large messages are transferred by a pipeline
algorithm".  Rooted gather/scatter switch binomial -> linear; allgather
switches recursive-doubling -> ring; alltoall uses pairwise exchange for
all but tiny messages.

Faithfulness note (documented in DESIGN.md): the intermediate-size
"split-binary" broadcast is modelled as a segmented binary-tree pipeline,
which has the same asymptotic cost structure (two concurrent subtrees, each
streaming segments) without the leaf half-exchange of the exact algorithm.
"""

from __future__ import annotations

from typing import Optional

from repro.coll.algorithms import (
    binary_parent_children,
    export_schedule,
    binomial_children,
    binomial_parent,
    binomial_subtree_size,
    chain_neighbors,
    rank_of,
    segments,
    vrank_of,
)
from repro.coll.base import BaseColl, register_component
from repro.errors import CollectiveError
from repro.hardware.memory import SimBuffer
from repro.mpi.communicator import CollCtx

__all__ = ["TunedColl"]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@register_component("tuned")
class TunedColl(BaseColl):
    """Algorithm pool + decision function, like Open MPI's coll/tuned."""

    # ------------------------------------------------------------- broadcast
    def bcast(self, ctx: CollCtx, buf: SimBuffer, offset: int, nbytes: int,
              root: int):
        if ctx.size == 1:
            return
        t = self.tuning
        if nbytes <= t.tuned_bcast_binomial_max:
            yield from self._bcast_tree(ctx, buf, offset, nbytes, root,
                                        shape="binomial", segsize=0)
        elif nbytes <= t.tuned_bcast_splitbin_max:
            yield from self._bcast_tree(ctx, buf, offset, nbytes, root,
                                        shape="binary",
                                        segsize=t.tuned_bcast_segsize // 4)
        else:
            yield from self._bcast_tree(ctx, buf, offset, nbytes, root,
                                        shape="chain",
                                        segsize=t.tuned_bcast_segsize)

    def _bcast_tree(self, ctx: CollCtx, buf: SimBuffer, offset: int,
                    nbytes: int, root: int, shape: str, segsize: int):
        """Segmented broadcast down a tree: recv a segment, forward it."""
        v = vrank_of(ctx.rank, root, ctx.size)
        if shape == "binomial":
            parent = binomial_parent(v)
            children = binomial_children(v, ctx.size)
        elif shape == "binary":
            parent, children = binary_parent_children(v, ctx.size)
        elif shape == "chain":
            parent, nxt = chain_neighbors(v, ctx.size)
            children = [] if nxt is None else [nxt]
        else:  # pragma: no cover - defensive
            raise CollectiveError(f"unknown tree shape {shape!r}")
        to_rank = lambda vr: rank_of(vr, root, ctx.size)  # noqa: E731
        pending = []
        for seg_off, seg_len in segments(nbytes, segsize):
            if parent is not None:
                yield from ctx.recv(to_rank(parent), buf, offset + seg_off,
                                    seg_len)
            for child in children:
                pending.append(ctx.isend(to_rank(child), buf,
                                         offset + seg_off, seg_len))
        for req in pending:
            yield req.event

    # ------------------------------------------------------------------ gather
    def gather(self, ctx: CollCtx, sendbuf: SimBuffer,
               recvbuf: Optional[SimBuffer], count: int, root: int):
        if count <= self.tuning.tuned_gather_binomial_max and ctx.size > 2:
            yield from self._gather_binomial(ctx, sendbuf, recvbuf, count, root)
        else:
            yield from super().gather(ctx, sendbuf, recvbuf, count, root)

    def _gather_binomial(self, ctx: CollCtx, sendbuf: SimBuffer,
                         recvbuf: Optional[SimBuffer], count: int, root: int):
        """Fan-in over the binomial tree; subtree blocks ride in vrank order."""
        size = ctx.size
        v = vrank_of(ctx.rank, root, size)
        parent = binomial_parent(v)
        children = binomial_children(v, size)
        sub = binomial_subtree_size(v, size)
        if v == 0 and root == 0 and recvbuf is not None:
            temp, base = recvbuf, 0  # vrank order == rank order: gather in place
        else:
            temp = ctx.proc.alloc(sub * count, label="gather-tmp",
                                  backed=sendbuf.backed)
            base = 0
        yield from self._local_copy(ctx, sendbuf, 0, temp, base, count)
        # Children deliver smallest-subtree-first order irrelevant: irecv all.
        reqs = []
        for child in children:
            child_sub = binomial_subtree_size(child, size)
            reqs.append(ctx.irecv(rank_of(child, root, size), temp,
                                  base + (child - v) * count,
                                  child_sub * count))
        for req in reqs:
            yield req.event
        if v != 0:
            yield from ctx.send(rank_of(parent, root, size), temp, base,
                                sub * count)
        elif not (root == 0 and temp is recvbuf):
            if recvbuf is None:
                raise CollectiveError("gather root requires a receive buffer")
            # Unshuffle vrank-ordered temp into rank-ordered recvbuf.
            for vr in range(size):
                yield from self._local_copy(
                    ctx, temp, vr * count, recvbuf,
                    rank_of(vr, root, size) * count, count,
                )

    # -------------------------------------------------------------------- scatter
    def scatter(self, ctx: CollCtx, sendbuf: Optional[SimBuffer],
                recvbuf: SimBuffer, count: int, root: int):
        if count <= self.tuning.tuned_gather_binomial_max and ctx.size > 2:
            yield from self._scatter_binomial(ctx, sendbuf, recvbuf, count, root)
        else:
            yield from super().scatter(ctx, sendbuf, recvbuf, count, root)

    def _scatter_binomial(self, ctx: CollCtx, sendbuf: Optional[SimBuffer],
                          recvbuf: SimBuffer, count: int, root: int):
        size = ctx.size
        v = vrank_of(ctx.rank, root, size)
        parent = binomial_parent(v)
        children = binomial_children(v, size)
        sub = binomial_subtree_size(v, size)
        if v == 0:
            if sendbuf is None:
                raise CollectiveError("scatter root requires a send buffer")
            if root == 0:
                temp, base = sendbuf, 0
            else:
                temp = ctx.proc.alloc(size * count, label="scatter-tmp",
                                      backed=sendbuf.backed)
                base = 0
                for vr in range(size):  # shuffle into vrank order
                    yield from self._local_copy(
                        ctx, sendbuf, rank_of(vr, root, size) * count,
                        temp, vr * count, count,
                    )
        else:
            temp = ctx.proc.alloc(sub * count, label="scatter-tmp",
                                  backed=recvbuf.backed)
            base = 0
            yield from ctx.recv(rank_of(parent, root, size), temp, base,
                                sub * count)
        pending = []
        for child in children:
            child_sub = binomial_subtree_size(child, size)
            pending.append(ctx.isend(rank_of(child, root, size), temp,
                                     base + (child - v) * count,
                                     child_sub * count))
        yield from self._local_copy(ctx, temp, base + 0, recvbuf, 0, count)
        for req in pending:
            yield req.event

    # ------------------------------------------------------------------- allgather
    def allgather(self, ctx: CollCtx, sendbuf: SimBuffer, recvbuf: SimBuffer,
                  count: int):
        if ctx.size == 1:
            yield from self._local_copy(ctx, sendbuf, 0, recvbuf, 0, count)
            return
        if count < self.tuning.tuned_allgather_ring_min and _is_pow2(ctx.size):
            yield from self._allgather_recursive_doubling(ctx, sendbuf,
                                                          recvbuf, count)
        else:
            yield from self._allgather_ring(ctx, sendbuf, recvbuf, count)

    def _allgather_ring(self, ctx: CollCtx, sendbuf: SimBuffer,
                        recvbuf: SimBuffer, count: int):
        me, size = ctx.rank, ctx.size
        yield from self._local_copy(ctx, sendbuf, 0, recvbuf, me * count, count)
        left, right = (me - 1) % size, (me + 1) % size
        for step in range(size - 1):
            send_block = (me - step) % size
            recv_block = (me - step - 1) % size
            yield from ctx.sendrecv(
                right, recvbuf, send_block * count, count,
                left, recvbuf, recv_block * count, count, phase=step,
            )

    def _allgather_recursive_doubling(self, ctx: CollCtx, sendbuf: SimBuffer,
                                      recvbuf: SimBuffer, count: int):
        me, size = ctx.rank, ctx.size
        yield from self._local_copy(ctx, sendbuf, 0, recvbuf, me * count, count)
        k = 0
        dist = 1
        while dist < size:
            partner = me ^ dist
            my_group = (me // dist) * dist
            partner_group = (partner // dist) * dist
            yield from ctx.sendrecv(
                partner, recvbuf, my_group * count, dist * count,
                partner, recvbuf, partner_group * count, dist * count,
                phase=k,
            )
            dist <<= 1
            k += 1

    # --------------------------------------------------------------------- alltoall
    def alltoall(self, ctx: CollCtx, sendbuf: SimBuffer, recvbuf: SimBuffer,
                 count: int):
        if ctx.size == 1 or count < self.tuning.tuned_alltoall_pairwise_min:
            yield from super().alltoall(ctx, sendbuf, recvbuf, count)
            return
        yield from self._alltoall_pairwise(ctx, sendbuf, recvbuf, count)

    def _alltoall_pairwise(self, ctx: CollCtx, sendbuf: SimBuffer,
                           recvbuf: SimBuffer, count: int):
        """One partner per step: every core sends and receives exactly once."""
        me, size = ctx.rank, ctx.size
        yield from self._local_copy(ctx, sendbuf, me * count, recvbuf,
                                    me * count, count)
        for step in range(1, size):
            if _is_pow2(size):
                sendto = recvfrom = me ^ step
            else:
                sendto = (me + step) % size
                recvfrom = (me - step) % size
            yield from ctx.sendrecv(
                sendto, sendbuf, sendto * count, count,
                recvfrom, recvbuf, recvfrom * count, count, phase=step,
            )


# Cross-rank copies are the pml's KNEM rendezvous, which is receiver-reading.
export_schedule("tuned", "bcast", direction="read",
                description="binomial / split-binary / chain pipeline by size")
export_schedule("tuned", "scatter", direction="read",
                description="binomial below 6 KiB, linear otherwise")
export_schedule("tuned", "gather", direction="read",
                description="binomial below 6 KiB, linear otherwise")
export_schedule("tuned", "allgather", direction="read",
                description="recursive doubling (pow2) or ring")
export_schedule("tuned", "alltoall", direction="read",
                description="pairwise exchange for all but tiny messages")
