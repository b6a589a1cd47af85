"""Warm-pool parallel sweep executor (``--jobs N`` / ``run_sweep(parallel=)``).

The paper's evaluation grid — machines × collectives × stacks × message
sizes — is embarrassingly parallel: every (stack, size) cell builds a fresh
:class:`~repro.mpi.runtime.Machine`, fault plans fork per build, and each
simulator iterates its flows and events in creation-id order, so a cell's
measured time is a pure function of its inputs.

The old executor paid a cold pool per sweep: process spawn, imports, and
per-worker re-memoization of machine specs dwarfed the tiny cells of the
smoke grid (the committed baseline recorded speedup 0.225 — parallel
*slower* than serial).  This one amortizes the setup the way the paper
amortizes kernel buffer registration:

- the parent **warms every per-spec memo** (named specs, topology tree,
  distance matrix, route tables) and forks workers *once per sweep*, so
  workers inherit populated caches through copy-on-write;
- workers pull **chunked cell batches**, longest cells first, sized by a
  measured per-cell cost estimate (see :mod:`repro.bench.chunking`) from
  per-worker queues, one chunk in flight per worker, demand-driven;
- results stream back over **per-worker pipes** and the parent remains the
  **single writer** merging them into the cell map and the JSONL journal,
  which is what keeps parallel sweeps byte-identical to serial ones;
- a worker that dies mid-chunk is detected promptly (its pipe hits EOF) or
  by liveness polling, its unrecorded cells are requeued (first-wins
  dedupe absorbs any result it flushed before dying), and a replacement is
  forked from the still-warm parent.

Results deliberately do *not* share one ``multiprocessing.Queue``: queue
puts go through a per-process feeder thread holding a cross-process write
lock, so a fail-stop death (``os._exit``, ``kill -9``, OOM) can take the
lock down with it and wedge every other worker forever.  A pipe's
``Connection.send`` runs synchronously in the worker with no shared lock;
the worst a dying worker can do is truncate its own last frame, which the
parent reads as ``EOFError`` and treats as the death it is.

Workers resolve ``harness.imb_time`` dynamically, so a monkeypatched
measurement function is honoured in forked workers too (the equivalence
tests rely on this).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import signal
import threading
import time
from multiprocessing import connection as _mp_connection
from typing import Any, Iterator, Optional, Sequence

from repro.bench.chunking import DEFAULT_RETRY_LIMIT, ChunkScheduler
from repro.errors import BenchmarkError

__all__ = ["resolve_jobs", "run_cells", "WarmPool",
           "install_cell_chaos", "in_worker", "sigterm_interrupts"]

#: seconds between liveness polls while the result queue is quiet
_POLL_INTERVAL = 0.05

#: exponential-backoff respawn schedule after consecutive worker deaths:
#: delay = BASE * 2**(deaths-1), capped.  A single death respawns almost
#: immediately; a poison chunk killing its isolated retries in a row backs
#: off instead of fork-bombing the parent.
RESPAWN_BACKOFF_BASE = 0.02
RESPAWN_BACKOFF_CAP = 0.5

#: chaos-campaign cell hook: called with the cell key before each
#: measurement (in workers *and* on the serial path).  Installed in the
#: parent before the pool forks so workers inherit it; the hook may raise
#: a typed error or — inside a worker only, see :func:`in_worker` — call
#: ``os._exit`` to simulate a fail-stop worker death.
_CELL_CHAOS_HOOK = None

#: True inside a warm-pool worker process (set at worker start; inherited
#: ``False`` everywhere else).
_IN_WORKER = False


def install_cell_chaos(hook) -> None:
    """Install (or clear, with ``None``) the per-cell chaos hook."""
    global _CELL_CHAOS_HOOK
    _CELL_CHAOS_HOOK = hook


def in_worker() -> bool:
    """True when called inside a warm-pool worker process."""
    return _IN_WORKER


@contextlib.contextmanager
def sigterm_interrupts():
    """Convert SIGTERM into ``KeyboardInterrupt`` for the enclosed block.

    A sweep killed by the default SIGTERM disposition dies without
    unwinding: no ``finally`` runs, so the warm pool's daemon workers are
    never sent their sentinels — ``multiprocessing``'s atexit reaper does
    not run either, and the workers are orphaned onto init, blocked in
    ``task_q.get()`` forever.  Raising ``KeyboardInterrupt`` instead
    drives the normal unwind path: the executor shuts the pool down, the
    harness closes the journal after its last complete record, and the
    process exits like a Ctrl-C'd one.

    Signal handlers can only be installed from the main thread; anywhere
    else (a sweep-service runner thread, a pytest worker thread) this is
    a no-op and the hosting process owns signal policy.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _raise(signum, frame):
        raise KeyboardInterrupt("SIGTERM")

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count for a ``--jobs`` value (0/None = one per CPU)."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise BenchmarkError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _mp_context():
    """Prefer fork (workers inherit monkeypatches and warmed caches)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _picklable(exc: BaseException) -> BaseException:
    """The exception itself if it survives pickling, else a summary."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return BenchmarkError(f"worker cell failed: {exc!r}")


def _profile_path(base: str, machine: str, operation: str, stack_name: str,
                  size: int) -> str:
    safe = "".join(c if c.isalnum() or c in "-._" else "-"
                   for c in f"{machine}_{operation}_{stack_name}_{size}")
    return os.path.join(base, safe + ".pstats")


def _run_cell(task: tuple) -> tuple[str, float, Any]:
    """Measure one (stack, size) cell.

    The one per-cell function: serial sweeps, warm-pool workers and the
    sweep server's runner all call it.  Under ``harness.profile_dir`` the
    cell runs under :mod:`cProfile` and its dump lands in
    ``<dir>/<machine>_<operation>_<stack>_<size>.pstats``.
    """
    machine, stack, nprocs, operation, size, settings = task
    from repro.bench import harness, imb

    key = f"{stack.name}|{size}"
    if _CELL_CHAOS_HOOK is not None:
        _CELL_CHAOS_HOOK(key)
    prof_base = harness._PROFILE_DIR.get()
    if prof_base is None:
        t = harness.imb_time(machine, stack, nprocs, operation, size, settings)
    else:
        import cProfile

        prof = cProfile.Profile()
        t = prof.runcall(harness.imb_time, machine, stack, nprocs, operation,
                         size, settings)
        prof.dump_stats(_profile_path(prof_base, machine, operation,
                                      stack.name, size))
    return key, t, imb.consume_cell_stats()


def _worker_main(worker_id: int, task_q, result_conn) -> None:
    """Warm-pool worker loop: chunks in, per-cell results out.

    Messages out (over this worker's exclusive pipe): ``("cell", wid, gen,
    chunk_id, idx, key, t, stats, wall)`` per measured cell, ``("done",
    wid, gen, chunk_id)`` per finished chunk, ``("error", wid, gen,
    chunk_id, exc)`` then exit on a cell failure.  ``gen`` echoes the
    generation tag of the chunk message, so a parent reusing a persistent
    pool across runs can discard a prior run's late flushes.  ``None`` in
    shuts the worker down.
    """
    global _IN_WORKER
    _IN_WORKER = True
    # The parent translates Ctrl-C/SIGTERM into an orderly pool shutdown
    # (sentinels down the task queues); a worker that also caught the
    # terminal's process-group SIGINT would die mid-frame and turn a clean
    # interrupt into a spurious fail-stop death.  SIGTERM is reset to the
    # default so the parent's ``terminate()`` straggler path still works
    # even if the parent had remapped its own handler before forking.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic host policy
        pass
    try:
        while True:
            msg = task_q.get()
            if msg is None:
                return
            gen, chunk_id, cells = msg
            for idx, task in cells:
                wall0 = time.perf_counter()
                try:
                    key, t, stats = _run_cell(task)
                except BaseException as exc:  # propagate to the parent
                    result_conn.send(
                        ("error", worker_id, gen, chunk_id, _picklable(exc)))
                    return
                wall = time.perf_counter() - wall0
                result_conn.send(
                    ("cell", worker_id, gen, chunk_id, idx, key, t, stats,
                     wall))
            result_conn.send(("done", worker_id, gen, chunk_id))
    finally:
        result_conn.close()


class WarmPool:
    """Persistent forked workers with per-worker task queues and pipes.

    Forked once (per sweep) from a parent whose spec/topology/route memos
    are already warm; each worker owns a dedicated task queue (so the
    parent always knows which chunk a dead worker was holding) and a
    dedicated result pipe (so a dying worker cannot wedge anyone else's
    results — see the module docstring).
    """

    def __init__(self, workers: int, ctx=None):
        self._ctx = ctx or _mp_context()
        self._procs: dict[int, Any] = {}
        self._task_qs: dict[int, Any] = {}
        self._conns: dict[int, Any] = {}  # wid -> parent (read) pipe end
        self._next_id = 0
        #: workers forked to replace dead ones (diagnostics)
        self.respawns = 0
        #: current run generation — chunk messages are tagged with it and
        #: workers echo it back, so a persistent pool reused across runs
        #: (the sweep service) can discard a previous run's late flushes.
        self.generation = 0
        for _ in range(workers):
            self._spawn()

    def new_generation(self) -> int:
        """Advance to (and return) a fresh run generation."""
        self.generation += 1
        return self.generation

    def _spawn(self) -> int:
        wid = self._next_id
        self._next_id += 1
        tq = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main, args=(wid, tq, send_conn), daemon=True)
        proc.start()
        # The send end must live only in its worker: EOF on the parent's
        # read end then means exactly "that worker is gone".
        send_conn.close()
        self._procs[wid] = proc
        self._task_qs[wid] = tq
        self._conns[wid] = recv_conn
        return wid

    @property
    def worker_ids(self) -> list[int]:
        return sorted(self._procs)

    def send(self, wid: int, chunk_msg) -> None:
        self._task_qs[wid].put(chunk_msg)

    def get(self, timeout: float):
        """Next result message, ``("eof", wid)`` for a worker whose pipe
        closed (fail-stop death), or None after ``timeout`` quiet seconds."""
        ready = _mp_connection.wait(list(self._conns.values()), timeout)
        if not ready:
            return None
        for wid, conn in self._conns.items():
            if conn is ready[0]:
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    return ("eof", wid)
        return None  # pragma: no cover - conn vanished mid-wait

    def reap(self, wid: int) -> None:
        """Discard one worker (dead or presumed dead) and its plumbing."""
        proc = self._procs.pop(wid)
        if proc.is_alive():  # pragma: no cover - EOF from a live worker
            proc.terminate()
        proc.join()
        self._task_qs.pop(wid).close()
        self._conns.pop(wid).close()

    def reap_dead(self) -> list[int]:
        """Remove workers that exited; returns their ids."""
        dead = [wid for wid, p in self._procs.items() if not p.is_alive()]
        for wid in dead:
            self.reap(wid)
        return dead

    def respawn(self) -> int:
        """Fork a replacement worker (caches are still warm in the parent)."""
        self.respawns += 1
        return self._spawn()

    def shutdown(self) -> None:
        """Send every worker its sentinel; terminate stragglers."""
        for wid, tq in self._task_qs.items():
            if self._procs[wid].is_alive():
                try:
                    tq.put(None)
                except ValueError:  # pragma: no cover - queue already closed
                    pass
        deadline = time.perf_counter() + 2.0
        for proc in self._procs.values():
            proc.join(timeout=max(0.0, deadline - time.perf_counter()))
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for tq in self._task_qs.values():
            tq.close()
        for conn in self._conns.values():
            conn.close()
        self._procs.clear()
        self._task_qs.clear()
        self._conns.clear()


def run_cells(
    machine: str,
    operation: str,
    nprocs: int,
    settings,
    cells: Sequence[tuple],
    jobs: int,
    report: Optional[dict] = None,
    retry_limit: Optional[int] = DEFAULT_RETRY_LIMIT,
    pool: Optional[WarmPool] = None,
) -> Iterator[tuple[str, Any, Any]]:
    """Yield ``(cell key, seconds | CellAborted, CellStats|None)`` per cell.

    Results arrive in completion order — the caller journals them as they
    land and rebuilds the (deterministic) series from the full cell map at
    the end, so ordering never affects output.  A worker exception
    propagates to the caller and shuts the pool down; cells already yielded
    stay journaled, so a failed parallel sweep resumes exactly like a
    killed serial one.  A worker that *dies* (fail-stop, no exception
    message) is replaced — after exponential backoff when deaths repeat —
    and its unfinished cells re-run, climbing the quarantine ladder: a cell
    that exhausts ``retry_limit`` worker deaths is yielded as a typed
    :class:`~repro.bench.chunking.CellAborted` instead of a measurement
    (``retry_limit=None`` restores the unbounded requeue-forever
    behaviour).

    ``report``, when given, receives pool diagnostics (workers, chunks,
    requeues, respawns, aborts, backoff) after the run.

    ``pool``, when given, is an external persistent :class:`WarmPool`
    (the sweep service's): the run tags its chunks with a fresh pool
    generation, filters out any late flushes from prior generations, and
    leaves the pool running afterwards instead of shutting it down.
    """
    tasks = [(machine, stack, nprocs, operation, size, settings)
             for stack, size in cells]
    external_pool = pool is not None
    if external_pool:
        n = min(len(pool.worker_ids), len(tasks)) or 1
    else:
        n = min(resolve_jobs(jobs), len(tasks))
    if n <= 1 and not external_pool:
        for task in tasks:
            yield _run_cell(task)
        return

    if not external_pool:
        # Warm every per-spec memo before forking so the workers inherit
        # populated caches instead of rebuilding them per process.
        from repro.hardware.machines import warm_caches

        try:
            warm_caches(machine)
        except Exception:
            # Monkeypatched measurement functions may use machine names
            # the hardware layer does not know; the pool works either way.
            pass

    # Static seed: simulated event counts scale with segment count, i.e.
    # message size.  It orders the queue longest first; measured wall
    # costs per stack refine chunk sizes as cells land.
    scheduler = ChunkScheduler(
        [float(size) for _stack, size in cells],
        workers=n,
        classes=[stack.name for stack, _size in cells],
        retry_limit=retry_limit,
    )
    if not external_pool:
        pool = WarmPool(n)
    gen = pool.new_generation()
    busy: dict[int, int] = {}  # worker id -> outstanding chunk id
    consecutive_deaths = 0
    backoff_total = 0.0

    def top_up() -> None:
        for wid in pool.worker_ids:
            if wid in busy:
                continue
            chunk = scheduler.next_chunk()
            if chunk is None:
                return
            pool.send(
                wid, (gen, chunk.id, [(i, tasks[i]) for i in chunk.cells]))
            busy[wid] = chunk.id

    def backoff_delay() -> float:
        """Pre-respawn delay for the current death streak (and count it)."""
        nonlocal backoff_total
        delay = 0.0
        if consecutive_deaths > 1:
            delay = min(RESPAWN_BACKOFF_CAP,
                        RESPAWN_BACKOFF_BASE * 2 ** (consecutive_deaths - 2))
            backoff_total += delay
        return delay

    def key_of(idx: int) -> str:
        stack, size = cells[idx]
        return f"{stack.name}|{size}"

    try:
        top_up()
        while not scheduler.finished:
            msg = pool.get(timeout=_POLL_INTERVAL)
            if msg is None:
                # Quiet queue: check for fail-stopped workers and reassign
                # whatever they were holding.
                died = pool.reap_dead()
                lost_chunks = [busy.pop(wid) for wid in died if wid in busy]
                if scheduler.idle and not busy and not lost_chunks:
                    raise BenchmarkError(
                        "warm pool stalled: no queued cells, no live "
                        "workers with work, but results are missing")
                for chunk_id in lost_chunks:
                    scheduler.fail(chunk_id)
                for idx, abort in scheduler.drain_aborted():
                    yield key_of(idx), abort, None
                for _ in died:
                    consecutive_deaths += 1
                    time.sleep(backoff_delay())
                    pool.respawn()
                if died:
                    top_up()
                continue
            kind = msg[0]
            if kind not in ("eof",) and msg[2] != gen:
                # Late flush from a previous run of a shared persistent
                # pool (its chunks were failed/requeued when that run was
                # torn down) — not ours, drop it.
                continue
            if kind == "cell":
                _kind, _wid, _gen, _chunk_id, idx, key, t, stats, wall = msg
                if scheduler.record(idx, t):
                    scheduler.observe(idx, wall)
                    yield key, t, stats
            elif kind == "done":
                _kind, wid, _gen, chunk_id = msg
                if busy.get(wid) == chunk_id:
                    del busy[wid]
                    scheduler.complete(chunk_id)
                    consecutive_deaths = 0
                    top_up()
                # else: the worker was presumed dead and its chunk already
                # failed/requeued — a late flush, already first-wins-safe.
            elif kind == "eof":
                # The worker's pipe closed: fail-stop death (possibly
                # truncating its final frame).  Requeue whatever it held
                # (quarantining budget-exhausted cells) and keep the pool
                # at full strength, backing off when deaths repeat.
                _kind, wid = msg
                pool.reap(wid)
                if wid in busy:
                    scheduler.fail(busy.pop(wid))
                for idx, abort in scheduler.drain_aborted():
                    yield key_of(idx), abort, None
                consecutive_deaths += 1
                time.sleep(backoff_delay())
                pool.respawn()
                top_up()
            elif kind == "error":
                _kind, _wid, _gen, _chunk_id, exc = msg
                raise exc
            else:  # pragma: no cover - protocol safety net
                raise BenchmarkError(f"unknown pool message {kind!r}")
    finally:
        if report is not None:
            report.update(
                workers=n,
                chunks=scheduler.chunks_issued,
                chunks_failed=scheduler.chunks_failed,
                cells_requeued=scheduler.cells_requeued,
                duplicates_dropped=scheduler.duplicates_dropped,
                cells_aborted=scheduler.cells_aborted,
                chunks_quarantined=scheduler.chunks_quarantined,
                respawns=pool.respawns,
                backoff_seconds=backoff_total,
            )
        if not external_pool:
            pool.shutdown()
