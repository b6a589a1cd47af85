"""Channel / Semaphore / CountdownLatch semantics."""

import pytest

from repro.errors import SimulationError
from repro.simtime import Channel, CountdownLatch, Semaphore


class TestChannel:
    def test_put_then_get(self, sim):
        ch = Channel(sim)
        ch.put("x")
        got = []

        def body():
            v = yield ch.get()
            got.append(v)

        sim.process(body())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, sim):
        ch = Channel(sim)
        got = []

        def getter():
            v = yield ch.get()
            got.append((v, sim.now))

        sim.process(getter())
        sim.schedule(3.0, lambda: ch.put("late"))
        sim.run()
        assert got == [("late", 3.0)]

    def test_fifo_item_order(self, sim):
        ch = Channel(sim)
        for i in range(4):
            ch.put(i)
        got = []

        def body():
            for _ in range(4):
                got.append((yield ch.get()))

        sim.process(body())
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_fifo_getter_order(self, sim):
        ch = Channel(sim)
        got = []

        def getter(name):
            v = yield ch.get()
            got.append((name, v))

        sim.process(getter("a"))
        sim.process(getter("b"))
        sim.schedule(1.0, lambda: ch.put(1))
        sim.schedule(2.0, lambda: ch.put(2))
        sim.run()
        assert got == [("a", 1), ("b", 2)]

    def test_len_and_waiters(self, sim):
        ch = Channel(sim)
        assert len(ch) == 0 and ch.waiters == 0
        ch.put(1)
        assert len(ch) == 1
        ch.get()
        assert len(ch) == 0


class TestSemaphore:
    def test_capacity_grants(self, sim):
        sem = Semaphore(sim, 2)
        a, b, c = sem.acquire(), sem.acquire(), sem.acquire()
        assert a.triggered and b.triggered and not c.triggered
        sem.release()
        assert c.triggered

    def test_negative_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Semaphore(sim, -1)

    def test_over_release_rejected(self, sim):
        sem = Semaphore(sim, 1)
        with pytest.raises(SimulationError):
            sem.release()

    def test_refused_release_leaves_count_alone(self, sim):
        sem = Semaphore(sim, 1)
        with pytest.raises(SimulationError):
            sem.release()
        assert sem.available == 1
        assert sem.acquire().triggered
        assert not sem.acquire().triggered

    def test_fifo_grant_order(self, sim):
        sem = Semaphore(sim, 0)
        order = []

        def worker(name):
            yield sem.acquire()
            order.append(name)

        for name in "abc":
            sim.process(worker(name))
        sim.schedule(1.0, sem.release)
        sim.schedule(2.0, sem.release)
        sim.schedule(3.0, sem.release)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_mutex_serializes(self, sim):
        sem = Semaphore(sim, 1)
        spans = []

        def worker():
            yield sem.acquire()
            start = sim.now
            yield sim.timeout(1.0)
            spans.append((start, sim.now))
            sem.release()

        for _ in range(3):
            sim.process(worker())
        sim.run()
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert s2 >= e1


class TestCountdownLatch:
    def test_opens_after_n_arrivals(self, sim):
        latch = CountdownLatch(sim, 3)
        opened = []

        def waiter():
            yield latch.wait()
            opened.append(sim.now)

        sim.process(waiter())
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, latch.arrive)
        sim.run()
        assert opened == [3.0]

    def test_wait_after_open_immediate(self, sim):
        latch = CountdownLatch(sim, 0)
        ev = latch.wait()
        assert ev.triggered

    def test_over_arrival_rejected(self, sim):
        latch = CountdownLatch(sim, 1)
        latch.arrive()
        with pytest.raises(SimulationError):
            latch.arrive()

    def test_bulk_arrive(self, sim):
        latch = CountdownLatch(sim, 5)
        latch.arrive(5)
        assert latch.remaining == 0
        with pytest.raises(SimulationError):
            CountdownLatch(sim, 2).arrive(3)
