"""Event loop semantics: ordering, triggering, failure propagation."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simtime import Event, Simulator, Timeout


class TestEvent:
    def test_pending_until_triggered(self, sim):
        ev = sim.event()
        assert not ev.triggered
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_sets_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_trigger_rejected(self, sim):
        ev = sim.event().succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_callbacks_run_in_registration_order(self, sim):
        ev = sim.event()
        order = []
        ev.add_callback(lambda e: order.append(1))
        ev.add_callback(lambda e: order.append(2))
        ev.succeed()
        sim.run()
        assert order == [1, 2]

    def test_late_callback_still_fires(self, sim):
        ev = sim.event().succeed("v")
        sim.run()
        assert ev.processed
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["v"]

    def test_unwaited_failure_surfaces(self, sim):
        ev = sim.event()
        ev.fail(ValueError("lost"))
        with pytest.raises(ValueError, match="lost"):
            sim.run()


class TestTimeout:
    def test_fires_at_delay(self, sim):
        times = []
        t = Timeout(sim, 2.5)
        t.add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == [2.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            Timeout(sim, -1.0)

    def test_value_passthrough(self, sim):
        t = sim.timeout(1.0, value="payload")
        got = []
        t.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == ["payload"]

    def test_zero_delay_allowed(self, sim):
        t = sim.timeout(0.0)
        sim.run()
        assert t.processed
        assert sim.now == 0.0


class TestSimulator:
    def test_same_time_fifo_order(self, sim):
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_interleaved_times(self, sim):
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_run_until_stops_clock(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.run(until=5.0)
        assert not fired
        assert sim.now == 5.0
        sim.run()
        assert fired == [1]

    def test_run_until_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)

    def test_step_empty_queue_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_nested_scheduling(self, sim):
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(1.0, lambda: seen.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]

    def test_deadlock_detection_names_blocked_process(self, sim):
        def stuck():
            yield sim.event()  # never triggered

        sim.process(stuck(), name="stuck-proc")
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        assert "stuck-proc" in str(exc.value)

    def test_deadlock_report_is_deterministic(self, sim):
        """The report names every blocked process (sorted), the event each
        one is parked on, and the count of distinct pending events."""
        def stuck_on(ev):
            yield ev

        never_a = sim.event(name="never-a")
        never_b = sim.event(name="never-b")
        # registered out of name order on purpose: the report must sort
        sim.process(stuck_on(never_b), name="procB")
        sim.process(stuck_on(never_a), name="procA")
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        err = exc.value
        assert err.blocked == ["procA", "procB"]
        assert err.waiting == {"procA": "never-a", "procB": "never-b"}
        assert err.pending_events == 2
        msg = str(err)
        assert "procA (waiting on never-a)" in msg
        assert "procB (waiting on never-b)" in msg
        assert "2 distinct pending event(s)" in msg

    def test_deadlock_report_counts_shared_event_once(self, sim):
        def stuck_on(ev):
            yield ev

        shared = sim.event(name="shared-gate")
        sim.process(stuck_on(shared), name="p0")
        sim.process(stuck_on(shared), name="p1")
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        assert exc.value.pending_events == 1
        assert exc.value.waiting == {"p0": "shared-gate", "p1": "shared-gate"}

    def test_daemon_does_not_deadlock(self, sim):
        def daemon():
            yield sim.event()

        sim.process(daemon(), name="bg", daemon=True)
        sim.run()  # no DeadlockError

    def test_queue_size_tracks_pending(self, sim):
        assert sim.queue_size == 0
        sim.timeout(1.0)
        sim.timeout(2.0)
        assert sim.queue_size == 2
        sim.run()
        assert sim.queue_size == 0

    def test_unwaited_failure_keeps_later_same_instant_events(self, sim):
        fired = []
        sim.schedule(0.0, lambda: fired.append("before"))
        sim.event(name="boom").fail(RuntimeError("boom"))
        sim.schedule(0.0, lambda: fired.append("after-1"))
        sim.schedule(0.0, lambda: fired.append("after-2"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert fired == ["before"]
        sim.run()
        assert fired == ["before", "after-1", "after-2"]

    def test_raising_callback_keeps_later_same_instant_events(self, sim):
        fired = []

        def bad():
            raise SimulationError("callback exploded")

        sim.schedule(1.0, lambda: fired.append(0))
        sim.schedule(1.0, bad)
        sim.schedule(1.0, lambda: fired.append(2))
        with pytest.raises(SimulationError, match="exploded"):
            sim.run()
        assert fired == [0]
        sim.run()
        assert fired == [0, 2]

    def test_zero_delay_event_from_callback_runs_after_queued(self, sim):
        order = []

        def spawn():
            order.append("spawn")
            sim.schedule(0.0, lambda: order.append("child"))

        sim.schedule(1.0, spawn)
        sim.schedule(1.0, lambda: order.append("sibling"))
        sim.run()
        assert order == ["spawn", "sibling", "child"]

    def test_run_horizon_stops_at_last_dispatched_event(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1.0))
        sim.schedule(2.0, lambda: fired.append(2.0))
        sim.schedule(3.0, lambda: fired.append(3.0))
        sim.run_horizon(2.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run_horizon(2.5)
        assert sim.now == 2.0
        assert sim.queue_size == 1
        with pytest.raises(SimulationError, match="in the past"):
            sim.run_horizon(1.5)


class TestLateFailure:
    """Late registration on an already-processed *failed* event.

    Regression tests: the late-registration proxy used to succeed with
    ``None``, so late waiters saw a successful event where early waiters
    saw the failure.
    """

    def _failed_processed_event(self, sim, caught):
        ev = sim.event()

        def early():
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        def failer():
            ev.fail(ValueError("boom"))
            return
            yield  # pragma: no cover - makes this a generator

        sim.process(early(), name="early")
        sim.process(failer(), name="failer")
        sim.run()
        assert ev.processed and not ev.ok
        return ev

    def test_late_callback_sees_failure(self, sim):
        caught = []
        ev = self._failed_processed_event(sim, caught)
        seen = []
        ev.add_callback(lambda e: seen.append((e is ev, e.ok, str(e.value))))
        sim.run()
        assert caught == ["boom"]
        assert seen == [(True, False, "boom")]

    def test_late_process_waiter_sees_failure(self, sim):
        caught = []
        ev = self._failed_processed_event(sim, caught)

        def late():
            try:
                yield ev
            except ValueError as exc:
                caught.append(f"late:{exc}")

        sim.process(late(), name="late")
        sim.run()  # must not re-surface the defused failure either
        assert caught == ["boom", "late:boom"]

    def test_allof_with_processed_failed_child_fails(self, sim):
        from repro.simtime import AllOf

        caught = []
        bad = self._failed_processed_event(sim, caught)
        ok = sim.event().succeed(1)
        comp = AllOf(sim, [ok, bad])

        def waiter():
            try:
                yield comp
            except ValueError as exc:
                caught.append(f"allof:{exc}")

        sim.process(waiter(), name="waiter")
        sim.run()
        assert caught == ["boom", "allof:boom"]
        assert not comp.ok


class TestCounters:
    def test_counters_start_at_zero(self, sim):
        assert sim.stats == {"events_processed": 0, "process_resumes": 0,
                             "peak_heap": 0}

    def test_counters_track_activity(self, sim):
        def prog():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.process(prog(), name="p")
        sim.run()
        st = sim.stats
        assert st["events_processed"] >= 3  # start + two timeouts
        assert st["process_resumes"] >= 3
        assert st["peak_heap"] >= 1

    def test_run_until_also_counts(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run(until=1.5)
        assert sim.stats["events_processed"] == 1
        sim.run()
        assert sim.stats["events_processed"] == 2
