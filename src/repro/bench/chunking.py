"""Pure chunk planning and accounting for the warm-pool sweep executor.

The executor's process shell (fork, queues, liveness polling) lives in
:mod:`repro.bench.executor`; every scheduling *decision* lives here, in a
plain object with no processes, clocks, or I/O, so the exactly-once
delivery invariants are directly checkable by the Hypothesis suite in
tests/bench/test_chunking.py:

- every cell is executed exactly once (results are first-wins; duplicate
  reports are rejected),
- no cell is lost or duplicated when a chunk's worker dies mid-chunk
  (``fail`` requeues exactly the unrecorded remainder),
- the merged result set is independent of completion order.

Cells are queued longest first, by a static per-cell cost estimate (the
executor seeds message size — simulated event counts scale with segment
count), so the largest cells start at once instead of landing last on
one worker while the others idle.  Chunks are sized by the same estimate:
completed cells feed measured wall seconds back per *cost class* (the
executor keys classes by stack name), scaling the estimates of
still-queued cells; a class not measured yet takes the mean ratio of the
measured ones, so a cell estimated in seconds is never weighed against
one still estimated in bytes.  Cheap cells therefore batch large and
expensive cells batch small, and the target chunk cost shrinks as the
queue drains so the tail stays load-balanced.

**The quarantine ladder.**  A cell whose execution deterministically
kills its worker (a "poison" cell) would otherwise be requeued forever,
respawning workers in an infinite loop.  Failures therefore climb a
ladder:

1. *batch* — cells run in cost-sized chunks (the fast path);
2. *isolate* — a cell that was in a failed chunk is marked suspect and is
   re-issued **alone**, so a poison cell cannot burn its chunkmates'
   retry budgets (the blast radius of one death shrinks to one cell);
3. *quarantine* — after ``retry_limit`` worker deaths the cell is not
   requeued again: a typed :class:`CellAborted` is recorded as its result
   (exactly-once still holds — the abort *is* the result), surfaced by
   the executor in ``SweepStats`` and the CLI exit code.

``retry_limit=None`` disables steps 2-3 and restores the unbounded
pre-quarantine behaviour (tests use it to drive the pure exactly-once
core through arbitrarily many deaths).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Sequence

from repro.errors import BenchmarkError

__all__ = ["Chunk", "CellAborted", "ChunkScheduler", "DEFAULT_RETRY_LIMIT"]

#: worker deaths one cell may cause before it is quarantined
DEFAULT_RETRY_LIMIT = 3


@dataclass(frozen=True)
class CellAborted:
    """Typed result of a quarantined cell (picklable, never a float).

    Recorded in place of a measurement when a cell exhausted its retry
    budget; carries enough to explain *why* in reports and trace events.
    """

    cell: int
    deaths: int
    reason: str = "worker died repeatedly"

    def describe(self) -> str:
        return (f"cell {self.cell} aborted after {self.deaths} worker "
                f"death(s): {self.reason}")


@dataclass(frozen=True)
class Chunk:
    """One batch of cell indices handed to a single worker."""

    id: int
    cells: tuple[int, ...]


class ChunkScheduler:
    """Exactly-once chunked dispatch over ``n`` cells.

    ``costs`` are positive relative cost estimates (one per cell); cells
    are queued in descending cost, equal costs in input order;
    ``classes`` optionally groups cells whose measured costs should inform
    each other (default: every cell is its own class).  ``oversubscribe``
    is the number of chunks each worker should see over a full sweep —
    larger values give finer load balancing at more queue traffic.
    ``retry_limit`` is the per-cell worker-death budget of the quarantine
    ladder (``None`` disables quarantine: every death requeues forever).
    """

    #: EWMA weight of a new cost measurement against the running ratio.
    MEASURE_ALPHA = 0.5
    #: hard cap on cells per chunk (keeps worker-death blast radius small)
    MAX_CHUNK = 64

    def __init__(self, costs: Sequence[float], workers: int,
                 classes: Optional[Sequence[Hashable]] = None,
                 oversubscribe: int = 4,
                 retry_limit: Optional[int] = DEFAULT_RETRY_LIMIT):
        if workers < 1:
            raise BenchmarkError(f"chunk scheduler needs >= 1 worker, got {workers}")
        if oversubscribe < 1:
            raise BenchmarkError(
                f"oversubscribe must be >= 1, got {oversubscribe}")
        if retry_limit is not None and retry_limit < 1:
            raise BenchmarkError(
                f"retry_limit must be >= 1 or None, got {retry_limit}")
        n = len(costs)
        if classes is None:
            classes = list(range(n))
        elif len(classes) != n:
            raise BenchmarkError("one cost class required per cell")
        self._base = [max(float(c), 1e-9) for c in costs]
        self._classes = list(classes)
        self._workers = workers
        self._oversubscribe = oversubscribe
        self._retry_limit = retry_limit
        #: measured-over-estimated cost ratio per class (EWMA), and their
        #: mean, which stands in for a class not measured yet so that every
        #: estimate is in one unit
        self._ratio: dict[Hashable, float] = {}
        self._default_ratio = 1.0
        # Longest first (a stable sort: equal costs keep input order).
        self._queued: deque[int] = deque(
            sorted(range(n), key=lambda c: -self._base[c]))
        self._outstanding: dict[int, tuple[int, ...]] = {}
        self._results: dict[int, Any] = {}
        self._next_chunk_id = 0
        #: worker deaths charged to each cell (unrecorded when its chunk
        #: failed); reaching ``retry_limit`` quarantines the cell.
        self._deaths: dict[int, int] = {}
        #: cells that were in a failed chunk: issued as singleton chunks
        self._suspect: set[int] = set()
        #: quarantined cells not yet drained by the executor
        self._fresh_aborts: list[int] = []
        #: lifetime diagnostics
        self.chunks_issued = 0
        self.chunks_failed = 0
        self.cells_requeued = 0
        self.duplicates_dropped = 0
        self.cells_aborted = 0
        self.chunks_quarantined = 0

    # -- state ------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self._base)

    @property
    def finished(self) -> bool:
        """True once every cell has a recorded result."""
        return len(self._results) == len(self._base)

    @property
    def idle(self) -> bool:
        """True when nothing is queued or in flight (≠ finished: a failed
        sweep can drain with cells unrecorded)."""
        return not self._queued and not self._outstanding

    def results(self) -> dict[int, Any]:
        """Recorded results by cell index (a copy)."""
        return dict(self._results)

    def _estimate(self, cell: int) -> float:
        return self._base[cell] * self._ratio.get(self._classes[cell],
                                                   self._default_ratio)

    # -- dispatch ---------------------------------------------------------
    def next_chunk(self) -> Optional[Chunk]:
        """Carve the next batch off the queue (None when it is empty).

        The target chunk cost is the remaining queued cost split across
        ``workers * oversubscribe`` hand-outs, so chunks shrink toward the
        tail; at least one cell is always taken.  Suspect cells (ladder
        step 2 — they were in a failed chunk) are issued **alone**, so a
        poison cell never takes fresh chunkmates down with it.
        """
        queued = self._queued
        if not queued:
            return None
        cells = [queued.popleft()]
        if cells[0] not in self._suspect:
            cost = self._estimate(cells[0])
            remaining = cost + sum(self._estimate(c) for c in queued)
            target = remaining / (self._workers * self._oversubscribe)
            while queued and len(cells) < self.MAX_CHUNK:
                if queued[0] in self._suspect:
                    break
                nxt = self._estimate(queued[0])
                if cost + nxt > target:
                    break
                cells.append(queued.popleft())
                cost += nxt
        chunk = Chunk(self._next_chunk_id, tuple(cells))
        self._next_chunk_id += 1
        self._outstanding[chunk.id] = chunk.cells
        self.chunks_issued += 1
        return chunk

    # -- results ----------------------------------------------------------
    def record(self, cell: int, value: Any) -> bool:
        """Record one cell result; False (dropped) if it already has one.

        First-wins: a cell requeued after a worker death may be reported
        both by the replacement worker and by a late message the dead
        worker flushed before dying — only the first report lands, so the
        caller journals each cell exactly once.
        """
        if not 0 <= cell < len(self._base):
            raise BenchmarkError(f"unknown cell index {cell}")
        if cell in self._results:
            self.duplicates_dropped += 1
            return False
        self._results[cell] = value
        return True

    def observe(self, cell: int, measured: float) -> None:
        """Feed one measured wall cost back into the cell's cost class."""
        if measured <= 0:
            return
        klass = self._classes[cell]
        ratio = measured / self._base[cell]
        prior = self._ratio.get(klass)
        self._ratio[klass] = ratio if prior is None else (
            prior + self.MEASURE_ALPHA * (ratio - prior))
        self._default_ratio = sum(self._ratio.values()) / len(self._ratio)

    # -- chunk lifecycle --------------------------------------------------
    def complete(self, chunk_id: int) -> tuple[int, ...]:
        """Close a chunk whose worker reported it done.

        Any cells the worker never reported (a lost message is a protocol
        bug, but exactly-once must not hinge on its absence) are requeued
        and returned.  Recorded cells shed their suspect mark — the cell
        ran to completion, so its earlier chunk's death was not its fault.
        """
        cells = self._outstanding.pop(chunk_id, None)
        if cells is None:
            raise BenchmarkError(f"chunk {chunk_id} is not outstanding")
        lost = []
        for c in cells:
            if c in self._results:
                self._suspect.discard(c)
                self._deaths.pop(c, None)
            else:
                lost.append(c)
                self._queued.append(c)
        self.cells_requeued += len(lost)
        return tuple(lost)

    def fail(self, chunk_id: int) -> tuple[int, ...]:
        """Close a chunk whose worker died; requeue the unrecorded rest.

        Each unrecorded cell is charged one worker death and climbs the
        quarantine ladder: first failure marks it suspect (it re-runs
        alone), the ``retry_limit``-th failure quarantines it — a typed
        :class:`CellAborted` is recorded as its result and the cell is
        *not* requeued (drain with :meth:`drain_aborted`).  Returns only
        the requeued cells.

        The chunk must actually be outstanding; a double-``fail`` on the
        same chunk id raises *before* any counter moves (a late liveness
        poll racing a pipe EOF must not double-count ``cells_requeued``
        or double-charge retry budgets).
        """
        cells = self._outstanding.pop(chunk_id, None)
        if cells is None:
            raise BenchmarkError(f"chunk {chunk_id} is not outstanding")
        self.chunks_failed += 1
        requeued = []
        aborted = []
        for c in cells:
            if c in self._results:
                continue
            deaths = self._deaths.get(c, 0) + 1
            self._deaths[c] = deaths
            if self._retry_limit is not None and deaths >= self._retry_limit:
                self._results[c] = CellAborted(cell=c, deaths=deaths)
                self._fresh_aborts.append(c)
                aborted.append(c)
            else:
                if self._retry_limit is not None:
                    self._suspect.add(c)
                requeued.append(c)
        # Requeue at the *front*, preserving cell order: a suspect cell
        # retries (alone) before fresh work, so a poison cell hits its
        # budget early instead of after the whole queue drains.
        self._queued.extendleft(reversed(requeued))
        self.cells_requeued += len(requeued)
        if aborted:
            self.chunks_quarantined += 1
            self.cells_aborted += len(aborted)
        return tuple(requeued)

    def drain_aborted(self) -> list[tuple[int, CellAborted]]:
        """Quarantined cells recorded since the last drain (in order).

        The executor yields these as typed results so the harness can
        surface them in ``SweepStats`` and skip them in the journal.
        """
        fresh = [(c, self._results[c]) for c in self._fresh_aborts]
        self._fresh_aborts.clear()
        return fresh
