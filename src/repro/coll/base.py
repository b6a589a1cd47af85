"""Component interface, registry, and linear reference algorithms.

:class:`BaseColl` implements every collective with the straightforward
linear algorithm over point-to-point messaging; specialized components
override what they optimize and inherit the rest — mirroring how Open MPI
components fall back to the basic module for unimplemented operations.

All collective methods are generators executed *per rank*: each rank of the
communicator runs the same method with its own :class:`CollCtx`, and the
method plays that rank's role in the algorithm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import CollectiveError
from repro.hardware.memory import SimBuffer
from repro.mpi.communicator import CollCtx

#: Reduction operators: the numpy ufunc (by name) applied element-wise.
REDUCE_OPS: dict[str, str] = {
    "sum": "add",
    "prod": "multiply",
    "min": "minimum",
    "max": "maximum",
}

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import World

__all__ = ["BaseColl", "register_component", "make_component"]

_REGISTRY: dict[str, Callable[["World"], "BaseColl"]] = {}


def register_component(name: str):
    """Class decorator adding a collective component to the registry."""

    def wrap(cls):
        _REGISTRY[name] = cls
        cls.component_name = name
        return cls

    return wrap


def make_component(name: str, world: "World") -> "BaseColl":
    """Instantiate a registered collective component by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise CollectiveError(
            f"unknown collective component {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(world)


class BaseColl:
    """Linear reference algorithms; the fallback for every component."""

    component_name = "base"

    def __init__(self, world: "World"):
        self.world = world
        self.tuning = world.stack.tuning

    # -- helpers ------------------------------------------------------------
    def _local_copy(self, ctx: CollCtx, src: SimBuffer, src_off: int,
                    dst: SimBuffer, dst_off: int, nbytes: int):
        """A rank moving its own contribution (charged to its core)."""
        if nbytes:
            yield ctx.machine.mem.copy(ctx.proc.core, src, src_off, dst,
                                       dst_off, nbytes, label="coll-local")

    @staticmethod
    def _uniform(count: int, size: int) -> tuple[list[int], list[int]]:
        return [count] * size, [r * count for r in range(size)]

    # -- barrier -------------------------------------------------------------
    def barrier(self, ctx: CollCtx):
        yield from ctx.dissemination_barrier()

    # -- broadcast --------------------------------------------------------------
    def bcast(self, ctx: CollCtx, buf: SimBuffer, offset: int, nbytes: int,
              root: int):
        if ctx.size == 1:
            return
        if ctx.rank == root:
            reqs = [ctx.isend(peer, buf, offset, nbytes)
                    for peer in range(ctx.size) if peer != root]
            for req in reqs:
                yield req.event
        else:
            yield from ctx.recv(root, buf, offset, nbytes)

    # -- scatter -------------------------------------------------------------------
    def scatter(self, ctx: CollCtx, sendbuf: Optional[SimBuffer],
                recvbuf: SimBuffer, count: int, root: int):
        counts, displs = self._uniform(count, ctx.size)
        yield from self.scatterv(ctx, sendbuf, counts, displs, recvbuf, root)

    def scatterv(self, ctx: CollCtx, sendbuf: Optional[SimBuffer],
                 counts: list[int], displs: list[int], recvbuf: SimBuffer,
                 root: int):
        if ctx.rank == root:
            if sendbuf is None:
                raise CollectiveError("scatter root requires a send buffer")
            reqs = []
            for peer in range(ctx.size):
                if peer == root:
                    continue
                reqs.append(ctx.isend(peer, sendbuf, displs[peer], counts[peer]))
            yield from self._local_copy(ctx, sendbuf, displs[root], recvbuf, 0,
                                        counts[root])
            for req in reqs:
                yield req.event
        else:
            yield from ctx.recv(root, recvbuf, 0, counts[ctx.rank])

    # -- gather --------------------------------------------------------------------
    def gather(self, ctx: CollCtx, sendbuf: SimBuffer,
               recvbuf: Optional[SimBuffer], count: int, root: int):
        counts, displs = self._uniform(count, ctx.size)
        yield from self.gatherv(ctx, sendbuf, recvbuf, counts, displs, root)

    def gatherv(self, ctx: CollCtx, sendbuf: SimBuffer,
                recvbuf: Optional[SimBuffer], counts: list[int],
                displs: list[int], root: int):
        if ctx.rank == root:
            if recvbuf is None:
                raise CollectiveError("gather root requires a receive buffer")
            reqs = []
            for peer in range(ctx.size):
                if peer == root:
                    continue
                reqs.append(ctx.irecv(peer, recvbuf, displs[peer], counts[peer]))
            yield from self._local_copy(ctx, sendbuf, 0, recvbuf, displs[root],
                                        counts[root])
            for req in reqs:
                yield req.event
        else:
            yield from ctx.send(root, sendbuf, 0, counts[ctx.rank])

    # -- allgather --------------------------------------------------------------------
    def allgather(self, ctx: CollCtx, sendbuf: SimBuffer, recvbuf: SimBuffer,
                  count: int):
        counts, displs = self._uniform(count, ctx.size)
        yield from self.allgatherv(ctx, sendbuf, recvbuf, counts, displs)

    def allgatherv(self, ctx: CollCtx, sendbuf: SimBuffer, recvbuf: SimBuffer,
                   counts: list[int], displs: list[int]):
        me = ctx.rank
        reqs = [ctx.irecv(peer, recvbuf, displs[peer], counts[peer])
                for peer in range(ctx.size) if peer != me]
        sends = [ctx.isend(peer, sendbuf, 0, counts[me])
                 for peer in range(ctx.size) if peer != me]
        yield from self._local_copy(ctx, sendbuf, 0, recvbuf, displs[me],
                                    counts[me])
        for req in reqs + sends:
            yield req.event

    # -- reductions ---------------------------------------------------------
    def reduce(self, ctx: CollCtx, sendbuf: SimBuffer,
               recvbuf: Optional[SimBuffer], count: int, root: int,
               dtype: str = "u1", op: str = "sum"):
        """Binomial-tree reduction (an extension beyond the paper's five
        operations; KNEM-Coll inherits it unchanged — reductions are among
        the "unimplemented collective calls" the paper delegates)."""
        import numpy as np

        from repro.coll.algorithms import (binomial_children, binomial_parent,
                                           rank_of, vrank_of)

        try:
            combine = getattr(np, REDUCE_OPS[op])
        except KeyError:
            raise CollectiveError(
                f"unknown reduce op {op!r}; available: {sorted(REDUCE_OPS)}"
            ) from None
        itemsize = np.dtype(dtype).itemsize
        if count % itemsize:
            raise CollectiveError(f"count {count} not a multiple of {dtype} size")
        size = ctx.size
        v = vrank_of(ctx.rank, root, size)
        parent = binomial_parent(v)
        children = binomial_children(v, size)

        def view(buf: SimBuffer):
            return buf.data[:count].view(dtype) if buf.backed else None

        if not children and parent is not None:
            yield from ctx.send(rank_of(parent, root, size), sendbuf, 0, count)
            return
        accum = ctx.proc.alloc(count, label="reduce-accum",
                               backed=sendbuf.backed)
        yield from self._local_copy(ctx, sendbuf, 0, accum, 0, count)
        scratch = ctx.proc.alloc(count, label="reduce-scratch",
                                 backed=sendbuf.backed)
        for child in children:
            yield from ctx.recv(rank_of(child, root, size), scratch, 0, count)
            if accum.backed:
                combine(view(accum), view(scratch), out=view(accum))
            yield ctx.proc.elem_ops(count // itemsize)
        if parent is not None:
            yield from ctx.send(rank_of(parent, root, size), accum, 0, count)
        else:
            if recvbuf is None:
                raise CollectiveError("reduce root requires a receive buffer")
            yield from self._local_copy(ctx, accum, 0, recvbuf, 0, count)

    def allreduce(self, ctx: CollCtx, sendbuf: SimBuffer, recvbuf: SimBuffer,
                  count: int, dtype: str = "u1", op: str = "sum"):
        """Reduce to rank 0, then broadcast (the basic composition)."""
        yield from self.reduce(ctx.sub(0), sendbuf, recvbuf, count, root=0,
                               dtype=dtype, op=op)
        yield from self.bcast(ctx.sub(200), recvbuf, 0, count, root=0)

    # -- alltoall -----------------------------------------------------------
    def alltoall(self, ctx: CollCtx, sendbuf: SimBuffer, recvbuf: SimBuffer,
                 count: int):
        counts, displs = self._uniform(count, ctx.size)
        yield from self.alltoallv(ctx, sendbuf, counts, displs, recvbuf,
                                  counts, displs)

    def alltoallv(self, ctx: CollCtx, sendbuf: SimBuffer,
                  send_counts: list[int], send_displs: list[int],
                  recvbuf: SimBuffer, recv_counts: list[int],
                  recv_displs: list[int]):
        me = ctx.rank
        reqs = [ctx.irecv(peer, recvbuf, recv_displs[peer], recv_counts[peer])
                for peer in range(ctx.size) if peer != me]
        sends = [ctx.isend(peer, sendbuf, send_displs[peer], send_counts[peer])
                 for peer in range(ctx.size) if peer != me]
        yield from self._local_copy(ctx, sendbuf, send_displs[me], recvbuf,
                                    recv_displs[me], recv_counts[me])
        for req in reqs + sends:
            yield req.event
