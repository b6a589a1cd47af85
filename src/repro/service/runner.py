"""The compute side of the sweep service: a thread owning the warm pool.

The asyncio transport must never block on a simulation, so cache misses
cross a plain :class:`queue.Queue` into one ``PoolRunner`` thread that
owns the **persistent** :class:`~repro.bench.executor.WarmPool` for the
server's whole life — the fork-once amortization the ROADMAP asks for.
Each drain of the queue is batched and grouped by execution context
(machine, operation, nprocs, settings), and each group runs through the
*existing* :func:`~repro.bench.executor.run_cells` machinery with
``pool=`` — chunked dispatch, EWMA cost model, quarantine ladder and all
— tagged with a fresh pool generation so a torn-down run's late flushes
can never contaminate the next one.

Two same-group cells whose ``stack.name|size`` label collides (same
stack name, different tuning — distinct cache keys) cannot share one
``run_cells`` call, whose result labels are exactly those strings; the
later cell is deferred to the next batch instead.

Completion callbacks are marshalled back to the event loop with
``call_soon_threadsafe``; the runner never touches asyncio state
directly.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.bench.chunking import CellAborted
from repro.bench.executor import WarmPool, _run_cell, resolve_jobs, run_cells

__all__ = ["ComputeJob", "PoolRunner"]


@dataclass
class ComputeJob:
    """One cache-miss cell queued for the pool.

    ``done(outcome)`` is called from the runner thread with ``(t, stats)``
    on success, a :class:`CellAborted` on quarantine, or an exception on
    failure — the server wraps it in ``call_soon_threadsafe``.
    """

    key: str                    # content-addressed cache key
    ctx_token: str              # context fingerprint (grouping only)
    machine: str
    operation: str
    nprocs: int
    settings: Any
    stack: Any
    size: int
    done: Callable[[Any], None] = field(default=lambda outcome: None)

    @property
    def label(self) -> str:
        return f"{self.stack.name}|{self.size}"


class PoolRunner:
    """Batches queued cells onto one persistent warm pool.

    ``jobs`` follows ``--jobs`` semantics (0 = one worker per CPU);
    ``jobs=1`` runs cells serially in the runner thread itself — no
    fork, useful for tests and single-core hosts.  The pool is created
    lazily on the first computed batch, so a server whose every request
    hits the cache never forks at all.
    """

    def __init__(self, jobs: int = 0):
        self._jobs = resolve_jobs(jobs)
        self._queue: queue.Queue = queue.Queue()
        self._pool: Optional[WarmPool] = None
        self._thread: Optional[threading.Thread] = None
        #: cells computed by this runner (the server's "did the pool run"
        #: counter — cache hits never reach it)
        self.cells_computed = 0
        self.batches = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-sweep-pool", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Drain-stop the runner and shut the pool down (idempotent)."""
        if self._thread is None:
            return
        self._queue.put(None)
        self._thread.join(timeout=30.0)
        self._thread = None

    def submit(self, job: ComputeJob) -> None:
        self._queue.put(job)

    # -- runner thread -----------------------------------------------------

    def _ensure_pool(self) -> Optional[WarmPool]:
        if self._jobs <= 1:
            return None
        if self._pool is None:
            self._pool = WarmPool(self._jobs)
        return self._pool

    def _run(self) -> None:
        stop = False
        try:
            while not stop:
                job = self._queue.get()
                if job is None:
                    return
                batch = [job]
                while True:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is None:
                        stop = True
                        break
                    batch.append(nxt)
                deferred = self._run_batch(batch)
                for j in deferred:
                    self._queue.put(j)
        finally:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    def _run_batch(self, batch: list) -> list:
        """Run one drained batch; returns label-collision deferrals."""
        self.batches += 1
        groups: dict[str, list[ComputeJob]] = {}
        for job in batch:
            groups.setdefault(job.ctx_token, []).append(job)
        deferred: list[ComputeJob] = []
        for jobs in groups.values():
            by_label: dict[str, ComputeJob] = {}
            for job in jobs:
                if job.label in by_label:
                    deferred.append(job)
                else:
                    by_label[job.label] = job
            self._run_group(by_label)
        return deferred

    def _run_group(self, by_label: dict) -> None:
        jobs = list(by_label.values())
        first = jobs[0]
        pool = self._ensure_pool()
        if pool is None:
            # Serial in-thread path (jobs=1): same _run_cell the serial
            # sweep and the pool workers use, so times stay identical.
            for job in jobs:
                try:
                    _key, t, stats = _run_cell(
                        (job.machine, job.stack, job.nprocs, job.operation,
                         job.size, job.settings))
                    self.cells_computed += 1
                    job.done((t, stats))
                except BaseException as exc:
                    job.done(exc)
            return
        pending = dict(by_label)
        producer = run_cells(
            first.machine, first.operation, first.nprocs, first.settings,
            [(job.stack, job.size) for job in jobs], jobs=0, pool=pool)
        try:
            for label, t, stats in producer:
                job = pending.pop(label, None)
                if job is None:  # pragma: no cover - first-wins duplicate
                    continue
                if isinstance(t, CellAborted):
                    job.done(t)
                else:
                    self.cells_computed += 1
                    job.done((t, stats))
        except BaseException as exc:
            # A worker error fails every cell still pending in the group;
            # the pool survives (run_cells leaves external pools running).
            for job in pending.values():
                job.done(exc)
            pending.clear()
        finally:
            producer.close()
