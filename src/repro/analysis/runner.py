"""Run a collective schedule under the analyzer and report findings.

Each registered *algo* pairs a stack (KNEM-Coll, Tuned-KNEM, MPICH2-KNEM)
with a self-verifying program: buffers are filled with rank-dependent
patterns, the collective runs on a traced machine, the payload is checked,
and every registered checker is run over the resulting trace model under
the direction contract the component exports for that operation
(:func:`repro.coll.algorithms.export_schedule`).  A
:class:`~repro.analysis.findings.Report` comes back even when the run
deadlocks or raises — that is exactly when the checkers are most useful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional

import numpy as np

# Importing the checker modules registers them.
import repro.analysis.checkers  # noqa: F401
import repro.analysis.deadlock  # noqa: F401
from repro.analysis.findings import Report, run_checkers
from repro.analysis.model import build_model
from repro.coll.algorithms import DirectionSpec, get_schedule
from repro.errors import CollectiveError, DeadlockError, ReproError
from repro.mpi.runtime import Job, Machine, Proc
from repro.mpi.stacks import KNEM_COLL, MPICH2_KNEM, TUNED_KNEM, Stack
from repro.units import KiB

__all__ = ["AlgoSpec", "ALGOS", "algo_names", "run_analysis"]


@dataclass(frozen=True)
class AlgoSpec:
    """One analyzable schedule: stack + program + declared direction."""

    name: str
    stack: Stack
    program: Callable
    direction: DirectionSpec
    nbytes: int
    description: str


ALGOS: dict[str, AlgoSpec] = {}

#: a rank's collective program: yields simulator events, returns its finish
_Program = Generator[Any, Any, float]


def algo_names() -> list[str]:
    return sorted(ALGOS)


# ------------------------------------------------------------- programs ----

def _pattern(seed: int, nbytes: int) -> np.ndarray:
    """A deterministic, seed-dependent byte pattern."""
    return ((np.arange(nbytes, dtype=np.uint64) * 31 + seed * 131) % 251
            ).astype(np.uint8)


def _verify(proc: Proc, got: np.ndarray, want: np.ndarray, what: str) -> None:
    if not np.array_equal(got, want):
        bad = int(np.flatnonzero(got != want)[0])
        raise CollectiveError(
            f"rank {proc.rank}: {what} payload wrong at byte {bad} "
            f"(got {got[bad]}, want {want[bad]})"
        )


def _bcast_program(proc: Proc, nbytes: int) -> _Program:
    buf = proc.alloc_array(nbytes, label=f"bcast-r{proc.rank}")
    want = _pattern(0, nbytes)
    if proc.rank == 0:
        buf.array[:] = want
    yield from proc.comm.bcast(buf.sim, 0, nbytes, 0)
    _verify(proc, buf.array, want, "bcast")
    return proc.now


def _scatter_program(proc: Proc, nbytes: int) -> _Program:
    size = proc.comm.size
    recv = proc.alloc_array(nbytes, label=f"scatter-recv-r{proc.rank}")
    send = None
    if proc.rank == 0:
        root = proc.alloc_array(nbytes * size, label="scatter-send")
        for r in range(size):
            root.array[r * nbytes:(r + 1) * nbytes] = _pattern(r, nbytes)
        send = root.sim
    yield from proc.comm.scatter(send, recv.sim, nbytes, 0)
    _verify(proc, recv.array, _pattern(proc.rank, nbytes), "scatter")
    return proc.now


def _gather_program(proc: Proc, nbytes: int) -> _Program:
    size = proc.comm.size
    send = proc.alloc_array(nbytes, label=f"gather-send-r{proc.rank}")
    send.array[:] = _pattern(proc.rank, nbytes)
    recv = None
    if proc.rank == 0:
        recv = proc.alloc_array(nbytes * size, label="gather-recv")
    yield from proc.comm.gather(send.sim, recv.sim if recv else None,
                                nbytes, 0)
    if proc.rank == 0:
        for r in range(size):
            _verify(proc, recv.array[r * nbytes:(r + 1) * nbytes],
                    _pattern(r, nbytes), f"gather slice {r}")
    return proc.now


def _allgather_program(proc: Proc, nbytes: int) -> _Program:
    size = proc.comm.size
    send = proc.alloc_array(nbytes, label=f"allgather-send-r{proc.rank}")
    send.array[:] = _pattern(proc.rank, nbytes)
    recv = proc.alloc_array(nbytes * size, label=f"allgather-recv-r{proc.rank}")
    yield from proc.comm.allgather(send.sim, recv.sim, nbytes)
    for r in range(size):
        _verify(proc, recv.array[r * nbytes:(r + 1) * nbytes],
                _pattern(r, nbytes), f"allgather slice {r}")
    return proc.now


def _alltoallv_program(proc: Proc, nbytes: int) -> _Program:
    size = proc.comm.size
    me = proc.rank
    send = proc.alloc_array(nbytes * size, label=f"a2av-send-r{me}")
    for dest in range(size):
        send.array[dest * nbytes:(dest + 1) * nbytes] = \
            _pattern(me * size + dest, nbytes)
    recv = proc.alloc_array(nbytes * size, label=f"a2av-recv-r{me}")
    counts = [nbytes] * size
    displs = [r * nbytes for r in range(size)]
    yield from proc.comm.alltoallv(send.sim, counts, displs,
                                   recv.sim, counts, displs)
    for src in range(size):
        _verify(proc, recv.array[src * nbytes:(src + 1) * nbytes],
                _pattern(src * size + me, nbytes), f"alltoallv block {src}")
    return proc.now


_PROGRAMS: dict[str, Callable] = {
    "bcast": _bcast_program,
    "scatter": _scatter_program,
    "gather": _gather_program,
    "allgather": _allgather_program,
    "alltoallv": _alltoallv_program,
}


def _register_stacks() -> None:
    for prefix, stack, nbytes in (
        ("knem", KNEM_COLL, 64 * KiB),
        ("tuned", TUNED_KNEM, 256 * KiB),
        ("mpich2", MPICH2_KNEM, 1024 * KiB),
    ):
        for op, program in _PROGRAMS.items():
            name = f"{prefix}_{op}"
            # tuned and mpich2 run alltoallv through their alltoall schedule
            exported = "alltoall" if op == "alltoallv" and prefix != "knem" \
                else op
            ALGOS[name] = AlgoSpec(
                name=name, stack=stack, program=program,
                direction=get_schedule(f"{prefix}.{exported}").contract,
                nbytes=nbytes,
                description=f"{op} on the {stack.name} stack "
                            f"({nbytes // KiB} KiB per rank)",
            )


_register_stacks()


# --------------------------------------------------------------- driving ----

def run_analysis(algo: str, machine: str = "zoot",
                 nprocs: Optional[int] = None, nbytes: Optional[int] = None,
                 checkers: Optional[Iterable[str]] = None) -> Report:
    """Run one registered algo on a traced machine and check the schedule."""
    try:
        spec = ALGOS[algo]
    except KeyError:
        raise KeyError(
            f"unknown algo {algo!r}; available: {algo_names()}"
        ) from None
    m = Machine.build(machine, trace=True)
    if nprocs is None:
        nprocs = min(8, m.spec.n_cores)
    nbytes = spec.nbytes if nbytes is None else nbytes
    try:
        job = Job(m, nprocs, stack=spec.stack)
    except ReproError as exc:
        # e.g. oversubscribing the machine: report it, don't traceback.
        return Report(subject=algo, findings=[], machine=m.spec.name,
                      nprocs=nprocs, nbytes=nbytes,
                      error=f"{type(exc).__name__}: {exc}")
    deadlock: Optional[DeadlockError] = None
    error = ""
    try:
        job.run(spec.program, nbytes)
    except DeadlockError as exc:
        deadlock = exc
        error = str(exc)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    model = build_model(job, deadlock=deadlock,
                        direction_spec=spec.direction)
    findings = run_checkers(model, checkers)
    return Report(subject=algo, findings=findings, machine=m.spec.name,
                  nprocs=nprocs, nbytes=nbytes, error=error)
