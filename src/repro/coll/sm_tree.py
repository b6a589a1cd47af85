"""Graham-style shared-memory fan-in/fan-out trees (related work [9]).

A logical fixed-degree tree built over the *rank order* (deliberately
topology-oblivious — the paper's critique of this approach is exactly that
"the fixed degree tree is built following the logical ranks layout, which
cannot always reflect architecture characteristics").  Messages stream
through the copy-in/copy-out transport in cache-sized segments to control
working-set size, as in the original component.

Not part of the paper's measured configurations; provided as the
related-work baseline for the topology-awareness ablation.
"""

from __future__ import annotations

from typing import Optional

from repro.coll.algorithms import export_schedule, rank_of, segments, vrank_of
from repro.coll.base import BaseColl, register_component
from repro.hardware.memory import SimBuffer
from repro.mpi.communicator import CollCtx

__all__ = ["SmTreeColl"]


def _kary_parent_children(vrank: int, size: int,
                          degree: int) -> tuple[Optional[int], list[int]]:
    parent = None if vrank == 0 else (vrank - 1) // degree
    children = [c for c in range(vrank * degree + 1, vrank * degree + degree + 1)
                if c < size]
    return parent, children


@register_component("smtree")
class SmTreeColl(BaseColl):
    """Fixed-degree fan-in/fan-out with segment pipelining."""

    def bcast(self, ctx: CollCtx, buf: SimBuffer, offset: int, nbytes: int,
              root: int):
        if ctx.size == 1:
            return
        degree = self.tuning.sm_tree_degree
        segsize = self.tuning.sm_tree_segsize
        v = vrank_of(ctx.rank, root, ctx.size)
        parent, children = _kary_parent_children(v, ctx.size, degree)
        pending = []
        for seg_off, seg_len in segments(nbytes, segsize):
            if parent is not None:
                yield from ctx.recv(rank_of(parent, root, ctx.size), buf,
                                    offset + seg_off, seg_len)
            for child in children:
                pending.append(ctx.isend(rank_of(child, root, ctx.size), buf,
                                         offset + seg_off, seg_len))
        for req in pending:
            yield req.event

    def gather(self, ctx: CollCtx, sendbuf: SimBuffer,
               recvbuf: Optional[SimBuffer], count: int, root: int):
        """Fan-in: children aggregate into a temp, forward up the k-ary tree."""
        size = ctx.size
        if size == 1:
            yield from self._local_copy(ctx, sendbuf, 0, recvbuf, 0, count)
            return
        degree = self.tuning.sm_tree_degree
        v = vrank_of(ctx.rank, root, size)
        parent, children = _kary_parent_children(v, size, degree)

        def subtree(vr: int) -> list[int]:
            out = [vr]
            _p, kids = _kary_parent_children(vr, size, degree)
            for k in kids:
                out.extend(subtree(k))
            return out

        mine = subtree(v)
        if v == 0:
            temp = recvbuf
        else:
            temp = ctx.proc.alloc(len(mine) * count, label="smtree-tmp",
                                  backed=sendbuf.backed)
        index = {vr: i for i, vr in enumerate(sorted(mine))}
        slot = (lambda vr: rank_of(vr, root, size) * count) if v == 0 else (
            lambda vr: index[vr] * count)
        yield from self._local_copy(ctx, sendbuf, 0, temp, slot(v), count)
        for child in children:
            child_vrs = sorted(subtree(child))
            # Children send their subtree in their own sorted-vrank order;
            # receive piecewise into the right slots.
            child_temp = ctx.proc.alloc(len(child_vrs) * count,
                                        label="smtree-rx",
                                        backed=sendbuf.backed)
            yield from ctx.recv(rank_of(child, root, size), child_temp, 0,
                                len(child_vrs) * count)
            for i, vr in enumerate(child_vrs):
                yield from self._local_copy(ctx, child_temp, i * count,
                                            temp, slot(vr), count)
        if v != 0:
            yield from ctx.send(rank_of(parent, root, size), temp, 0,
                                len(mine) * count)


export_schedule("smtree", "bcast",
                description="fixed-degree fan-out tree, segment pipelined")
export_schedule("smtree", "gather",
                description="fixed-degree fan-in with subtree aggregation")
