"""Process semantics: yielding, return values, exceptions, composition."""

import gc

import pytest

from repro.errors import SimulationError
from repro.simtime import AllOf, AnyOf, Channel, Simulator
from repro.simtime.process import Interrupted, Process


class TestProcess:
    def test_return_value_becomes_event_value(self, sim):
        def body():
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(body())
        sim.run()
        assert p.ok and p.value == "done"

    def test_sequential_timeouts_accumulate(self, sim):
        marks = []

        def body():
            for dt in (1.0, 2.0, 3.0):
                yield sim.timeout(dt)
                marks.append(sim.now)

        sim.process(body())
        sim.run()
        assert marks == [1.0, 3.0, 6.0]

    def test_yield_from_composition(self, sim):
        def inner(dt):
            yield sim.timeout(dt)
            return dt * 2

        def outer():
            a = yield from inner(1.0)
            b = yield from inner(2.0)
            return a + b

        p = sim.process(outer())
        sim.run()
        assert p.value == 6.0
        assert sim.now == 3.0

    def test_event_value_delivered_to_generator(self, sim):
        ev = sim.event()
        got = []

        def body():
            v = yield ev
            got.append(v)

        sim.process(body())
        sim.schedule(1.0, lambda: ev.succeed("hello"))
        sim.run()
        assert got == ["hello"]

    def test_failed_event_raises_inside_generator(self, sim):
        ev = sim.event()
        caught = []

        def body():
            try:
                yield ev
            except ValueError as e:
                caught.append(str(e))

        sim.process(body())
        sim.schedule(1.0, lambda: ev.fail(ValueError("boom")))
        sim.run()
        assert caught == ["boom"]

    def test_uncaught_exception_fails_process(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise RuntimeError("die")

        p = sim.process(body())
        p._defused = True  # we inspect the failure instead of crashing run()
        sim.run()
        assert not p.ok
        assert isinstance(p.value, RuntimeError)

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError, match="generator"):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_yielding_non_event_fails(self, sim):
        def body():
            yield 42

        p = sim.process(body())
        p._defused = True
        sim.run()
        assert not p.ok
        assert isinstance(p.value, SimulationError)

    def test_yielding_foreign_event_fails(self, sim):
        other = Simulator()

        def body():
            yield other.event()

        p = sim.process(body())
        p._defused = True
        sim.run()
        assert not p.ok

    def test_process_is_waitable(self, sim):
        def child():
            yield sim.timeout(2.0)
            return 7

        def parent():
            v = yield sim.process(child())
            return v + 1

        p = sim.process(parent())
        sim.run()
        assert p.value == 8

    def test_interrupt(self, sim):
        log = []

        def body():
            try:
                yield sim.timeout(100.0)
            except Interrupted as e:
                log.append(e.reason)

        p = sim.process(body())
        sim.schedule(1.0, lambda: p.interrupt("stop it"))
        sim.run(until=5.0)
        assert log == ["stop it"]

    def test_interrupt_finished_process_rejected(self, sim):
        def body():
            return 1
            yield  # pragma: no cover

        p = sim.process(body())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_finished_processes_are_not_garbage_cycles(self):
        """Reference counting alone frees a finished process; nothing is
        left for the cyclic collector."""
        def body(sim):
            yield sim.timeout(1.0)

        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            sim = Simulator()
            for _ in range(1000):
                sim.process(body(sim))
            sim.run()
            del sim
            gc.collect()
            leaked = sum(isinstance(obj, Process) for obj in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert leaked == 0

    def test_close_discards_a_parked_daemon(self, sim):
        """close() unwinds the generator and schedules nothing; the wait it
        abandons is skipped by the channel's next hand-off."""
        chan = Channel(sim)
        unwound = []

        def daemon():
            try:
                while True:
                    yield chan.get()
            finally:
                unwound.append(sim.now)

        p = sim.process(daemon(), daemon=True)
        sim.run()
        p.close()
        assert unwound == [0.0]
        assert not sim._live_processes and sim.queue_size == 0
        assert not p.triggered
        chan.put("x")
        assert len(chan) == 1


class TestComposites:
    def test_allof_collects_values_in_order(self, sim):
        evs = [sim.timeout(3.0, value="c"), sim.timeout(1.0, value="a"),
               sim.timeout(2.0, value="b")]
        results = []

        def body():
            vals = yield AllOf(sim, evs)
            results.append((sim.now, vals))

        sim.process(body())
        sim.run()
        assert results == [(3.0, ["c", "a", "b"])]

    def test_allof_empty_succeeds_immediately(self, sim):
        all_of = AllOf(sim, [])
        assert all_of.triggered and all_of.value == []

    def test_allof_propagates_failure(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        caught = []

        def body():
            try:
                yield AllOf(sim, [good, bad])
            except KeyError:
                caught.append(True)

        sim.process(body())
        sim.schedule(2.0, lambda: bad.fail(KeyError("k")))
        sim.run()
        assert caught == [True]

    def test_anyof_returns_first(self, sim):
        slow = sim.timeout(5.0, value="slow")
        fast = sim.timeout(1.0, value="fast")
        got = []

        def body():
            idx, val = yield AnyOf(sim, [slow, fast])
            got.append((idx, val, sim.now))

        sim.process(body())
        sim.run()
        assert got == [(1, "fast", 1.0)]

    def test_anyof_requires_events(self, sim):
        with pytest.raises(SimulationError):
            AnyOf(sim, [])

    def test_anyof_late_events_ignored(self, sim):
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(2.0, value="b")
        any_of = AnyOf(sim, [a, b])
        sim.run()
        assert any_of.value == (0, "a")
