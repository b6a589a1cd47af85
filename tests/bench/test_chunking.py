"""Exactly-once properties of the warm-pool chunk scheduler (hypothesis).

The executor's process shell is exercised end-to-end by
tests/bench/test_executor.py; this suite drives the pure
:class:`~repro.bench.chunking.ChunkScheduler` through randomized worker
interleavings — chunks completing out of order, workers dying mid-chunk,
dead workers flushing late duplicate results — and checks the invariants
the sweep's byte-identical output hinges on:

- every cell ends up with exactly one recorded result,
- the merged result set is independent of completion order,
- a worker death loses nothing and duplicates nothing (``fail`` requeues
  exactly the unrecorded remainder, first-wins drops late flushes).

The death-driving suites construct their schedulers with
``retry_limit=None``: they kill workers arbitrarily often, and the pure
exactly-once core must hold through unbounded requeues.  The quarantine
ladder that *bounds* those requeues (suspect isolation, typed
:class:`CellAborted` after the retry budget) is covered separately by
:class:`TestRetryBudget`.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.chunking import CellAborted, ChunkScheduler
from repro.errors import BenchmarkError

#: pure per-cell result value — records are order-independent iff the
#: merged map equals {cell: value(cell)} no matter which attempt landed.
def value(cell: int) -> str:
    return f"cell-{cell}"


costs_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=48)
seeds = st.integers(min_value=0, max_value=10**9)


def drive(sched: ChunkScheduler, rng, *, die_p: float = 0.0,
          late_flush_p: float = 0.0, workers: int = 1) -> dict[int, int]:
    """Simulate the executor's dispatch loop; returns per-cell yield counts.

    Mirrors run_cells: up to ``workers`` chunks in flight, each step picks a
    random outstanding chunk and either completes it (recording every cell)
    or kills its worker after a random prefix (recording only that prefix,
    then ``fail``).  With ``late_flush_p``, a killed worker's unrecorded
    cells are re-reported later as the late duplicates a real dead worker
    can flush into the result queue.
    """
    in_flight: list = []
    late: list[int] = []
    yielded: dict[int, int] = {}

    def record(cell: int) -> None:
        if sched.record(cell, value(cell)):
            yielded[cell] = yielded.get(cell, 0) + 1
            sched.observe(cell, rng.random() * 10.0)

    while not sched.finished:
        while len(in_flight) < workers:
            chunk = sched.next_chunk()
            if chunk is None:
                break
            in_flight.append(chunk)
        # The scheduler must never strand cells: unfinished implies work
        # is queued or outstanding (the executor's stall check relies on
        # the contrapositive).
        assert in_flight, "scheduler stalled with cells unrecorded"
        chunk = in_flight.pop(rng.randrange(len(in_flight)))
        if rng.random() < die_p:
            k = rng.randrange(len(chunk.cells) + 1)
            for cell in chunk.cells[:k]:
                record(cell)
            # The requeued remainder is exactly the unrecorded tail (a
            # late flush may already have recorded some of these cells
            # from an earlier incarnation of the same work).
            expect_lost = set(chunk.cells[k:]) - set(yielded)
            lost = sched.fail(chunk.id)
            assert set(lost) == expect_lost
            if rng.random() < late_flush_p:
                late.extend(chunk.cells[k:])
        else:
            for cell in chunk.cells:
                record(cell)
            sched.complete(chunk.id)
        if late and rng.random() < 0.5:
            record(late.pop(rng.randrange(len(late))))
    for cell in late:  # drain any flushes still pending at the end
        record(cell)
    return yielded


class TestExactlyOnce:
    @given(costs=costs_lists, workers=st.integers(1, 6), seed=seeds)
    @settings(max_examples=60)
    def test_every_cell_yields_exactly_once_without_failures(
            self, costs, workers, seed):
        sched = ChunkScheduler(costs, workers=workers)
        yielded = drive(sched, random.Random(seed), workers=workers)
        assert yielded == {c: 1 for c in range(len(costs))}
        assert sched.results() == {c: value(c) for c in range(len(costs))}
        assert sched.chunks_failed == 0
        assert sched.duplicates_dropped == 0

    @given(costs=costs_lists, workers=st.integers(1, 6), seed=seeds)
    @settings(max_examples=60)
    def test_worker_deaths_lose_and_duplicate_nothing(
            self, costs, workers, seed):
        sched = ChunkScheduler(costs, workers=workers, retry_limit=None)
        yielded = drive(sched, random.Random(seed), die_p=0.4,
                        late_flush_p=0.6, workers=workers)
        # Exactly once out, first-wins in: requeued cells re-ran, late
        # flushes from the dead worker were dropped, nothing was lost.
        assert yielded == {c: 1 for c in range(len(costs))}
        assert sched.results() == {c: value(c) for c in range(len(costs))}

    @given(costs=costs_lists, workers=st.integers(1, 6),
           seed_a=seeds, seed_b=seeds)
    @settings(max_examples=40)
    def test_merged_results_are_completion_order_independent(
            self, costs, workers, seed_a, seed_b):
        merged = []
        for seed in (seed_a, seed_b):
            sched = ChunkScheduler(costs, workers=workers, retry_limit=None)
            drive(sched, random.Random(seed), die_p=0.3, late_flush_p=0.5,
                  workers=workers)
            merged.append(sched.results())
        assert merged[0] == merged[1]


class TestChunkCarving:
    @given(costs=costs_lists, workers=st.integers(1, 6),
           oversubscribe=st.integers(1, 8))
    @settings(max_examples=60)
    def test_chunks_partition_the_cells(self, costs, workers, oversubscribe):
        sched = ChunkScheduler(costs, workers=workers,
                               oversubscribe=oversubscribe)
        seen: list[int] = []
        while True:
            chunk = sched.next_chunk()
            if chunk is None:
                break
            assert 1 <= len(chunk.cells) <= ChunkScheduler.MAX_CHUNK
            seen.extend(chunk.cells)
        assert sorted(seen) == list(range(len(costs)))
        assert len(set(seen)) == len(seen)

    @given(costs=costs_lists, seed=seeds)
    @settings(max_examples=40)
    def test_observe_reshapes_chunks_but_not_coverage(self, costs, seed):
        # Wildly wrong cost feedback may change chunk shapes, never the
        # exactly-once outcome.
        classes = ["even" if i % 2 == 0 else "odd" for i in range(len(costs))]
        sched = ChunkScheduler(costs, workers=2, classes=classes,
                               retry_limit=None)
        yielded = drive(sched, random.Random(seed), die_p=0.2, workers=2)
        assert yielded == {c: 1 for c in range(len(costs))}

    def test_tail_chunks_shrink(self):
        # Equal-cost cells with oversubscribe=2 on one worker: the first
        # chunk takes half the queue, later chunks take half the rest.
        sched = ChunkScheduler([1.0] * 16, workers=1, oversubscribe=2)
        sizes = []
        while True:
            chunk = sched.next_chunk()
            if chunk is None:
                break
            sizes.append(len(chunk.cells))
        assert sizes[0] == 8
        assert sizes[0] >= sizes[-1]
        assert sum(sizes) == 16

    def test_longest_cells_are_queued_first(self):
        # Descending static cost; the two equal costs keep input order.
        sched = ChunkScheduler([1, 4, 16, 64, 4], workers=1, oversubscribe=1)
        assert sched.next_chunk().cells == (3, 2, 1, 4, 0)

    def test_unmeasured_classes_take_the_measured_scale(self):
        # Once class "a" is measured in seconds, class "b" must not stay
        # estimated in raw sizes: its queued cell would inflate the
        # target, and a's small cells would batch into one tail chunk.
        sched = ChunkScheduler([4, 4, 1, 1, 1, 1], workers=2,
                               oversubscribe=2,
                               classes=["a", "b", "a", "a", "a", "b"])
        assert sched.next_chunk().cells == (0,)
        assert sched.next_chunk().cells == (1,)
        sched.record(0, "t")
        sched.observe(0, 0.004)
        assert sched.next_chunk().cells == (2,)


class TestApiContract:
    def test_record_is_first_wins(self):
        sched = ChunkScheduler([1.0, 1.0], workers=1)
        chunk = sched.next_chunk()
        assert sched.record(chunk.cells[0], "a") is True
        assert sched.record(chunk.cells[0], "b") is False
        assert sched.results()[chunk.cells[0]] == "a"
        assert sched.duplicates_dropped == 1

    def test_record_unknown_cell_raises(self):
        sched = ChunkScheduler([1.0], workers=1)
        with pytest.raises(BenchmarkError):
            sched.record(5, "x")
        with pytest.raises(BenchmarkError):
            sched.record(-1, "x")

    def test_fail_requeues_only_unrecorded_cells(self):
        # retry_limit=None: with the ladder armed the survivors would be
        # suspect and re-issue as singletons (see TestRetryBudget).
        sched = ChunkScheduler([1.0] * 4, workers=1, oversubscribe=1,
                               retry_limit=None)
        chunk = sched.next_chunk()
        assert chunk.cells == (0, 1, 2, 3)
        sched.record(0, value(0))
        sched.record(2, value(2))
        assert sched.fail(chunk.id) == (1, 3)
        assert sched.cells_requeued == 2
        requeued = sched.next_chunk()
        assert requeued.cells == (1, 3)

    def test_complete_requeues_cells_a_lost_message_left_behind(self):
        sched = ChunkScheduler([1.0, 1.0], workers=1, oversubscribe=1)
        chunk = sched.next_chunk()
        sched.record(0, value(0))
        assert sched.complete(chunk.id) == (1,)
        assert not sched.finished
        assert sched.next_chunk().cells == (1,)

    def test_closing_a_chunk_twice_raises(self):
        sched = ChunkScheduler([1.0], workers=1)
        chunk = sched.next_chunk()
        sched.record(0, value(0))
        sched.complete(chunk.id)
        with pytest.raises(BenchmarkError):
            sched.complete(chunk.id)
        with pytest.raises(BenchmarkError):
            sched.fail(chunk.id)

    def test_idle_differs_from_finished_after_drain(self):
        sched = ChunkScheduler([1.0, 1.0], workers=1, oversubscribe=1)
        chunk = sched.next_chunk()
        sched.record(0, value(0))
        sched.fail(chunk.id)  # cell 1 requeued
        tail = sched.next_chunk()
        sched.fail(tail.id)  # requeued again...
        sched.next_chunk()  # ...and carved again, never recorded
        assert not sched.idle  # still outstanding
        assert not sched.finished

    def test_constructor_validation(self):
        with pytest.raises(BenchmarkError):
            ChunkScheduler([1.0], workers=0)
        with pytest.raises(BenchmarkError):
            ChunkScheduler([1.0], workers=1, oversubscribe=0)
        with pytest.raises(BenchmarkError):
            ChunkScheduler([1.0, 2.0], workers=1, classes=["only-one"])
        with pytest.raises(BenchmarkError):
            ChunkScheduler([1.0], workers=1, retry_limit=0)
        with pytest.raises(BenchmarkError):
            ChunkScheduler([1.0], workers=1, retry_limit=-3)


def drain_poison(sched: ChunkScheduler, poison: int,
                 max_steps: int) -> tuple[int, bool]:
    """Drive a scheduler whose ``poison`` cell kills every worker it
    touches; healthy chunkmates are recorded before the death (the dying
    worker got that far).  Returns (steps taken, converged)."""
    steps = 0
    while not sched.finished and steps < max_steps:
        steps += 1
        chunk = sched.next_chunk()
        assert chunk is not None, "scheduler stalled"
        if poison in chunk.cells:
            for cell in chunk.cells:
                if cell != poison:
                    sched.record(cell, value(cell))
            sched.fail(chunk.id)
            sched.drain_aborted()
        else:
            for cell in chunk.cells:
                sched.record(cell, value(cell))
            sched.complete(chunk.id)
    return steps, sched.finished


class TestRetryBudget:
    """The quarantine ladder: isolate suspects, abort at the budget.

    The last test is the pre-PR failure demonstration the acceptance
    criteria call for: with the ladder disabled (``retry_limit=None``,
    the old executor's behaviour) a poison cell is requeued forever and
    the sweep never converges; with any finite budget it converges in a
    bounded number of dispatches, yielding a typed :class:`CellAborted`.
    """

    def test_failed_chunks_survivors_reissue_alone(self):
        # One failed 4-cell chunk: all unrecorded cells become suspect
        # and are re-issued as singletons, ahead of any fresh work.
        sched = ChunkScheduler([1.0] * 6, workers=1, oversubscribe=1,
                               retry_limit=3)
        chunk = sched.next_chunk()
        assert len(chunk.cells) > 1
        sched.fail(chunk.id)
        for cell in chunk.cells:
            single = sched.next_chunk()
            assert single.cells == (cell,)
            sched.record(cell, value(cell))
            sched.complete(single.id)

    def test_completion_clears_the_suspect_mark(self):
        # A suspect cell that completes sheds its mark: cells recorded via
        # a successful chunk never linger in the suspect set, so the
        # scheduler batches the remainder normally.
        sched = ChunkScheduler([1.0] * 2, workers=1, oversubscribe=1,
                               retry_limit=3)
        chunk = sched.next_chunk()
        sched.fail(chunk.id)  # both cells suspect now
        first = sched.next_chunk()
        assert first.cells == (0,)
        sched.record(0, value(0))
        sched.complete(first.id)
        second = sched.next_chunk()
        assert second.cells == (1,)
        sched.record(1, value(1))
        sched.complete(second.id)
        assert sched.finished
        assert sched.cells_aborted == 0

    def test_quarantine_at_the_budget_is_the_cells_result(self):
        sched = ChunkScheduler([1.0] * 3, workers=1, oversubscribe=1,
                               retry_limit=2)
        steps, converged = drain_poison(sched, poison=1, max_steps=50)
        assert converged
        assert sched.cells_aborted == 1
        assert sched.chunks_quarantined == 1
        assert sched.drain_aborted() == []  # drained during the drive
        abort = sched.results()[1]
        assert isinstance(abort, CellAborted)
        assert abort.cell == 1
        assert abort.deaths == 2
        assert "2 worker death(s)" in abort.describe()
        # Exactly-once still holds: the abort *is* the result, and the
        # healthy cells carry real values.
        assert sched.results()[0] == value(0)
        assert sched.results()[2] == value(2)

    def test_drain_aborted_yields_each_abort_once(self):
        sched = ChunkScheduler([1.0] * 2, workers=1, oversubscribe=1,
                               retry_limit=1)
        chunk = sched.next_chunk()
        sched.fail(chunk.id)  # budget 1: both cells quarantine instantly
        drained = sched.drain_aborted()
        assert [c for c, _ in drained] == [0, 1]
        assert all(isinstance(a, CellAborted) for _, a in drained)
        assert sched.drain_aborted() == []
        assert sched.finished

    def test_double_fail_raises_before_any_counter_moves(self):
        sched = ChunkScheduler([1.0] * 2, workers=1, oversubscribe=1,
                               retry_limit=2)
        chunk = sched.next_chunk()
        sched.fail(chunk.id)
        snapshot = (sched.chunks_failed, sched.cells_requeued,
                    sched.cells_aborted, sched.chunks_quarantined)
        with pytest.raises(BenchmarkError):
            sched.fail(chunk.id)  # late liveness poll racing a pipe EOF
        assert (sched.chunks_failed, sched.cells_requeued,
                sched.cells_aborted, sched.chunks_quarantined) == snapshot

    @given(n=st.integers(2, 24), poison=st.integers(0, 23),
           limit=st.integers(1, 4), workers=st.integers(1, 4))
    @settings(max_examples=60)
    def test_any_finite_budget_converges_bounded(
            self, n, poison, limit, workers):
        poison %= n
        sched = ChunkScheduler([1.0] * n, workers=workers,
                               retry_limit=limit)
        # Bound: every healthy dispatch retires >= 1 cell, the poison cell
        # dies at most `limit` times, and each death splinters at most one
        # chunk into singleton retries.
        steps, converged = drain_poison(sched, poison,
                                        max_steps=3 * n + 3 * limit + 3)
        assert converged
        assert sched.cells_aborted == 1
        assert isinstance(sched.results()[poison], CellAborted)
        assert sched.results()[poison].deaths == limit

    def test_no_budget_requeues_forever(self):
        # Pre-quarantine behaviour: the poison cell bounces between queue
        # and a dying worker indefinitely — 200 dispatches in, the sweep
        # still has not converged and never aborts anything.
        sched = ChunkScheduler([1.0] * 4, workers=2, retry_limit=None)
        steps, converged = drain_poison(sched, poison=2, max_steps=200)
        assert not converged
        assert steps == 200
        assert sched.cells_aborted == 0
        assert 2 not in sched.results()
