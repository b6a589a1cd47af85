"""Seeded-buggy programs: each plants exactly the defect one checker hunts.

Every program runs on a traced machine via :func:`run_traced`, which keeps
the job (and its trace) even when the run raises — the checkers are most
interesting on broken runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import (
    DeadlockError,
    KnemInvalidCookie,
    KnemPermissionError,
    ReproError,
)
from repro.faults.plan import FaultPlan
from repro.kernel.knem import PROT_READ, PROT_WRITE
from repro.mpi.runtime import Job, Machine
from repro.mpi.stacks import KNEM_COLL, Stack
from repro.units import KiB

SIZE = 64 * KiB


def run_traced(machine_name: str, nprocs: int, stack: Stack, program, *args,
               fault_plan: Optional[FaultPlan] = None):
    """Run a program on a traced machine; return (job, deadlock, error)."""
    machine = Machine.build(machine_name, trace=True)
    if fault_plan is not None:
        machine.arm_faults(fault_plan.fork())
    job = Job(machine, nprocs=nprocs, stack=stack)
    deadlock: Optional[DeadlockError] = None
    error = ""
    try:
        job.run(program, *args)
    except DeadlockError as exc:
        deadlock = exc
        error = str(exc)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return job, deadlock, error


def use_after_free_program(proc):
    """Rank 0 destroys its region, then tells rank 1 to copy through it."""
    knem = proc.machine.knem
    if proc.rank == 0:
        buf = proc.alloc(SIZE, label="uaf-src")
        cookie = yield from knem.create_region(proc.core, buf, 0, SIZE,
                                               PROT_READ)
        yield from proc.comm.send_obj(1, cookie)
        yield from knem.destroy_region(proc.core, cookie)
        yield from proc.comm.send_obj(1, "go")
    elif proc.rank == 1:
        cookie, _ = yield from proc.comm.recv_obj(0)
        _go, _ = yield from proc.comm.recv_obj(0)
        dst = proc.alloc(SIZE, label="uaf-dst")
        try:
            yield from knem.copy(proc.core, cookie, 0, dst, 0, SIZE,
                                 write=False)
        except KnemInvalidCookie:
            pass  # the driver refused; the trace recorded the attempt
    return proc.now


def wrong_direction_program(proc):
    """Rank 0 exports read-only; rank 1 tries to write through the cookie."""
    knem = proc.machine.knem
    if proc.rank == 0:
        buf = proc.alloc(SIZE, label="dir-exported")
        cookie = yield from knem.create_region(proc.core, buf, 0, SIZE,
                                               PROT_READ)
        yield from proc.comm.send_obj(1, cookie)
        yield from proc.comm.recv_obj(1)
        yield from knem.destroy_region(proc.core, cookie)
    elif proc.rank == 1:
        cookie, _ = yield from proc.comm.recv_obj(0)
        src = proc.alloc(SIZE, label="dir-local")
        try:
            yield from knem.copy(proc.core, cookie, 0, src, 0, SIZE,
                                 write=True)
        except KnemPermissionError:
            pass
        yield from proc.comm.send_obj(0, None)
    return proc.now


def racy_writes_program(proc):
    """Ranks 1 and 2 both sender-write the full region, unsynchronized."""
    knem = proc.machine.knem
    if proc.rank == 0:
        buf = proc.alloc(SIZE, label="race-target")
        cookie = yield from knem.create_region(proc.core, buf, 0, SIZE,
                                               PROT_WRITE)
        yield from proc.comm.send_obj(1, cookie)
        yield from proc.comm.send_obj(2, cookie)
        yield from proc.comm.recv_obj(1)
        yield from proc.comm.recv_obj(2)
        yield from knem.destroy_region(proc.core, cookie)
    elif proc.rank in (1, 2):
        cookie, _ = yield from proc.comm.recv_obj(0)
        src = proc.alloc(SIZE, label=f"race-src-{proc.rank}")
        yield from knem.copy(proc.core, cookie, 0, src, 0, SIZE, write=True)
        yield from proc.comm.send_obj(0, None)
    return proc.now


def send_send_deadlock_program(proc):
    """The classic: two ranks blocking-send to each other, nobody receives."""
    peer = 1 - proc.rank
    buf = proc.alloc(SIZE, label=f"dl-send-{proc.rank}")
    yield from proc.comm.send(peer, buf)
    return proc.now


def oob_cookie_program(proc, side: dict):
    """Rank 1 learns the cookie through a side channel, with no HB edge."""
    knem = proc.machine.knem
    if proc.rank == 0:
        buf = proc.alloc(SIZE, label="oob-exported")
        cookie = yield from knem.create_region(proc.core, buf, 0, SIZE,
                                               PROT_READ)
        side["cookie"] = cookie
        yield proc.compute(1e-2)  # stay registered while rank 1 copies
    elif proc.rank == 1:
        yield proc.compute(1e-3)  # rank 0 has registered by now — but no
        dst = proc.alloc(SIZE, label="oob-dst")  # traced edge says so
        yield from knem.copy(proc.core, side["cookie"], 0, dst, 0, SIZE,
                             write=False)
    return proc.now


def overlapping_registration_program(proc, writable: bool):
    """One rank registers two live regions over the same bytes; the second
    grants ``PROT_WRITE`` when ``writable`` (two read-only exports of the
    same bytes are shared reading, not a hazard)."""
    knem = proc.machine.knem
    buf = proc.alloc(SIZE, label="overlap")
    first = yield from knem.create_region(proc.core, buf, 0, SIZE, PROT_READ)
    second = yield from knem.create_region(
        proc.core, buf, SIZE // 2, SIZE // 2,
        PROT_WRITE if writable else PROT_READ)
    yield from knem.destroy_region(proc.core, second)
    yield from knem.destroy_region(proc.core, first)
    return proc.now


def degraded_bcast_program(proc):
    """A clean broadcast — run it under a fault plan to get a degraded trace."""
    buf = proc.alloc_array(SIZE, "u1")
    if proc.rank == 0:
        buf.array[:] = np.arange(SIZE, dtype=np.uint32).astype(np.uint8)
    yield from proc.comm.bcast(buf.sim, 0, SIZE, root=0)
    return buf.array.tobytes()


def degraded_exchange_program(proc):
    """Gatherv + alltoallv back to back (all blocks beyond the threshold)."""
    size = proc.comm.size
    counts = [SIZE // 2 + 256 * r for r in range(size)]
    displs = list(np.cumsum([0] + counts[:-1]))
    send = proc.alloc_array(counts[proc.rank], "u1")
    send.array[:] = proc.rank + 1
    recv = proc.alloc_array(sum(counts), "u1") if proc.rank == 0 else None
    yield from proc.comm.gatherv(send.sim, recv.sim if recv else None,
                                 counts, displs, root=0)
    a2a_counts = [24 * KiB] * size
    a2a_displs = [24 * KiB * r for r in range(size)]
    sbuf = proc.alloc_array(24 * KiB * size, "u1")
    rbuf = proc.alloc_array(24 * KiB * size, "u1")
    sbuf.array[:] = proc.rank + 1
    yield from proc.comm.alltoallv(sbuf.sim, a2a_counts, a2a_displs,
                                   rbuf.sim, a2a_counts, a2a_displs)
    return rbuf.array.tobytes()


def alltoallv_mismatch_program(proc):
    """Inconsistent count matrices: the collective must abort, not leak.

    Rank 1 believes rank 0 sends it half of what rank 0 actually sends, so
    the exchange raises mid-collective while every rank still holds a
    registered send region — the regression fixture for the abort-path
    cookie reclaim.
    """
    size = proc.comm.size
    count = 32 * KiB
    send_counts = [count] * size
    recv_counts = [count] * size
    if proc.rank == 1:
        recv_counts[0] = count // 2
    displs = [count * r for r in range(size)]
    recv_displs = list(np.cumsum([0] + recv_counts[:-1]))
    send = proc.alloc_array(count * size, "u1")
    recv = proc.alloc_array(sum(recv_counts), "u1")
    yield from proc.comm.alltoallv(send.sim, send_counts, displs,
                                   recv.sim, recv_counts, recv_displs)
    return proc.now


ABLATION_ROOT_READS = KNEM_COLL.with_tuning(name="KNEM-RootReads",
                                            gather_direction_write=False)

