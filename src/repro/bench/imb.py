"""IMB-style collective timing on the simulated machine.

Reproduces the measurement protocol of the Intel MPI Benchmarks suite the
paper uses (IMB-3.2, Section VI-A):

- every rank executes the operation in a loop; the reported per-operation
  time is the *maximum over ranks* of (loop time / iterations);
- a warm-up iteration precedes timing;
- with ``off_cache`` (the paper enables ``-off_cache``) the communication
  buffers are evicted from every cache between iterations, so each
  iteration sees cold data — this is why the ASP application (which reuses
  cached buffers) shows a *larger* broadcast gain than the synthetic
  benchmark (Section VI-E).

Buffers are unbacked (timing-only): IMB does not validate payloads, and
skipping the real byte movement keeps large sweeps fast.  The transports'
staging memory follows the payload, so an unbacked cell also allocates no
bytes for its FIFO segments and collective temps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.errors import BenchmarkError
from repro.faults.plan import FaultPlan
from repro.mpi.runtime import Job, Machine, Proc
from repro.mpi.stacks import Stack

__all__ = ["ImbSettings", "OPS", "CellStats", "consume_cell_stats",
           "imb_time", "iterations_for"]


@dataclass(frozen=True)
class CellStats:
    """Simulator counters of one measured sweep cell (picklable)."""

    sim_events: int
    process_resumes: int
    peak_heap: int
    #: ``knem.degrade`` events this cell caused (tracer counters are always
    #: on, so this is free); nonzero means the KNEM recovery ladder fired
    #: and the cell's KNEM health is suspect — ``--strict`` fails on it.
    knem_degrades: int = 0


#: Counters of the most recent :func:`imb_time` call.  A module global
#: (consumed via :func:`consume_cell_stats`) instead of a richer return
#: type so tests can keep monkeypatching ``harness.imb_time`` with plain
#: ``float``-returning fakes.
_last_cell_stats: Optional[CellStats] = None


def consume_cell_stats() -> Optional[CellStats]:
    """Counters of the last :func:`imb_time` call, cleared on read.

    ``None`` when no real measurement ran since the previous consume (e.g.
    the caller's ``imb_time`` was monkeypatched).
    """
    global _last_cell_stats
    stats, _last_cell_stats = _last_cell_stats, None
    return stats


@dataclass(frozen=True)
class ImbSettings:
    """Measurement-loop parameters (IMB defaults scaled for simulation)."""

    warmups: int = 1
    max_iterations: int = 8
    #: target aggregate bytes per size step; iteration count is derived so
    #: small sizes iterate more (IMB behaviour), capped by max_iterations.
    target_bytes: int = 64 * 1024 * 1024
    off_cache: bool = True
    root: int = 0
    #: fault schedule armed (forked per fresh machine) before the run; None
    #: keeps the kernel path on its zero-overhead fast path.
    fault_plan: Optional[FaultPlan] = None


def iterations_for(msg_size: int, settings: ImbSettings) -> int:
    """IMB-style iteration count: small messages iterate more."""
    if msg_size <= 0:
        return settings.max_iterations
    return max(1, min(settings.max_iterations,
                      settings.target_bytes // max(msg_size, 1)))


def _op_bcast(proc: Proc, msg: int, settings: ImbSettings):
    buf = proc.alloc(msg, label="imb-bcast", backed=False)

    def call():
        yield from proc.comm.bcast(buf, 0, msg, root=settings.root)

    return call, [buf]


def _op_gather(proc: Proc, msg: int, settings: ImbSettings):
    size = proc.comm.size
    send = proc.alloc(msg, label="imb-gsend", backed=False)
    recv = (proc.alloc(msg * size, label="imb-grecv", backed=False)
            if proc.rank == settings.root else None)

    def call():
        yield from proc.comm.gather(send, recv, msg, root=settings.root)

    return call, [b for b in (send, recv) if b is not None]


def _op_scatter(proc: Proc, msg: int, settings: ImbSettings):
    size = proc.comm.size
    send = (proc.alloc(msg * size, label="imb-ssend", backed=False)
            if proc.rank == settings.root else None)
    recv = proc.alloc(msg, label="imb-srecv", backed=False)

    def call():
        yield from proc.comm.scatter(send, recv, msg, root=settings.root)

    return call, [b for b in (send, recv) if b is not None]


def _op_allgather(proc: Proc, msg: int, settings: ImbSettings):
    size = proc.comm.size
    send = proc.alloc(msg, label="imb-agsend", backed=False)
    recv = proc.alloc(msg * size, label="imb-agrecv", backed=False)

    def call():
        yield from proc.comm.allgather(send, recv, msg)

    return call, [send, recv]


def _op_alltoall(proc: Proc, msg: int, settings: ImbSettings):
    size = proc.comm.size
    send = proc.alloc(msg * size, label="imb-a2asend", backed=False)
    recv = proc.alloc(msg * size, label="imb-a2arecv", backed=False)

    def call():
        yield from proc.comm.alltoall(send, recv, msg)

    return call, [send, recv]


def _op_alltoallv(proc: Proc, msg: int, settings: ImbSettings):
    # IMB Alltoallv: uniform counts exercised through the v interface.
    size = proc.comm.size
    send = proc.alloc(msg * size, label="imb-a2avsend", backed=False)
    recv = proc.alloc(msg * size, label="imb-a2avrecv", backed=False)
    counts = [msg] * size
    displs = [r * msg for r in range(size)]

    def call():
        yield from proc.comm.alltoallv(send, counts, displs, recv, counts,
                                       displs)

    return call, [send, recv]


OPS: dict[str, Callable] = {
    "bcast": _op_bcast,
    "gather": _op_gather,
    "scatter": _op_scatter,
    "allgather": _op_allgather,
    "alltoall": _op_alltoall,
    "alltoallv": _op_alltoallv,
}


def _imb_program(proc: Proc, op: str, msg: int, iterations: int,
                 settings: ImbSettings):
    call, buffers = OPS[op](proc, msg, settings)
    caches = proc.machine.mem.caches

    def evict():
        for buf in buffers:
            caches.invalidate(buf)

    for _ in range(settings.warmups):
        yield from call()
    if settings.off_cache:
        evict()
    yield from proc.comm.barrier()
    t0 = proc.now
    for _ in range(iterations):
        yield from call()
        if settings.off_cache:
            evict()
    return proc.now - t0


def imb_time(
    machine_name,
    stack: Stack,
    nprocs: int,
    op: str,
    msg_size: int,
    settings: ImbSettings | None = None,
    iterations: int | None = None,
) -> float:
    """Per-operation time (seconds) of ``op`` at ``msg_size`` bytes.

    Builds a fresh machine (cold state) per call, runs the IMB loop on every
    rank, and returns ``max over ranks of loop_time / iterations``.
    """
    if op not in OPS:
        raise BenchmarkError(f"unknown IMB operation {op!r}; available: {sorted(OPS)}")
    settings = settings or ImbSettings()
    iters = iterations if iterations is not None else iterations_for(msg_size, settings)
    machine = Machine.build(machine_name)
    if settings.fault_plan is not None:
        machine.arm_faults(settings.fault_plan.fork())
    job = Job(machine, nprocs=nprocs, stack=stack)
    try:
        result = job.run(_imb_program, op, msg_size, iters, settings)
    finally:
        job.close()
    global _last_cell_stats
    sim = machine.sim
    _last_cell_stats = CellStats(
        sim_events=sim.events_processed,
        process_resumes=sim.process_resumes,
        peak_heap=sim.peak_heap,
        knem_degrades=machine.tracer.counters.get("knem.degrade", 0),
    )
    return max(result.values) / iters
