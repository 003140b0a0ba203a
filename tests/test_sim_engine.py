"""Unit tests for the discrete-event simulation kernel."""

import random

import pytest

from repro.sim.engine import PeriodicTimer, SimulationEngine, SimulationError, ms


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = SimulationEngine()
        order = []
        eng.schedule_at(2.0, lambda: order.append("b"))
        eng.schedule_at(1.0, lambda: order.append("a"))
        eng.schedule_at(3.0, lambda: order.append("c"))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        eng = SimulationEngine()
        order = []
        for tag in range(5):
            eng.schedule_at(1.0, lambda t=tag: order.append(t))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        eng = SimulationEngine()
        seen = []
        eng.schedule_at(5.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [5.5]
        assert eng.now == 5.5

    def test_schedule_after_is_relative(self):
        eng = SimulationEngine()
        seen = []
        eng.schedule_at(10.0, lambda: eng.schedule_after(2.5, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [12.5]

    def test_scheduling_into_past_raises(self):
        eng = SimulationEngine()
        eng.schedule_at(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(1.0, lambda: None)

    def test_negative_delay_raises(self):
        eng = SimulationEngine()
        with pytest.raises(SimulationError):
            eng.schedule_after(-1.0, lambda: None)

    def test_nan_time_raises(self):
        eng = SimulationEngine()
        with pytest.raises(SimulationError):
            eng.schedule_at(float("nan"), lambda: None)

    def test_events_scheduled_during_run_execute(self):
        eng = SimulationEngine()
        order = []

        def first():
            order.append("first")
            eng.schedule_after(1.0, lambda: order.append("second"))

        eng.schedule_at(0.0, first)
        eng.run()
        assert order == ["first", "second"]

    def test_event_at_current_time_during_run_executes(self):
        eng = SimulationEngine()
        order = []
        eng.schedule_at(1.0, lambda: eng.schedule_after(0.0, lambda: order.append("x")))
        eng.run()
        assert order == ["x"]

    def test_event_at_current_time_runs_after_existing_ties(self):
        """An event a callback schedules *at the current time* gets a later
        ``seq`` than every tie already queued, so it runs after them."""
        eng = SimulationEngine()
        order = []

        def first():
            order.append("first")
            eng.schedule_at(1.0, lambda: order.append("spawned"))

        eng.schedule_at(1.0, first)
        eng.schedule_at(1.0, lambda: order.append("second"))
        eng.run()
        assert order == ["first", "second", "spawned"]

    def test_randomized_ties_and_cancels_keep_time_seq_order(self):
        """Property check: under random spawning (ties included) and random
        cancellation from callbacks, the executed log is in ``(time, seq)``
        order and no event cancelled before its turn ever runs."""
        rng = random.Random(42)
        eng = SimulationEngine()
        executed = []  # (time, seq) of every callback that ran
        queued = []  # handles a later callback may cancel
        cancelled_early = set()  # seqs cancelled before they ran

        def spawn(t):
            box = []

            def cb():
                executed.append((box[0].time, box[0].seq))
                if rng.random() < 0.3:
                    spawn(eng.now + rng.choice([0.0, 0.1, 0.5, 1.7, 3.0]))
                if queued and rng.random() < 0.2:
                    victim = queued.pop(rng.randrange(len(queued)))
                    if (victim.time, victim.seq) not in executed:
                        cancelled_early.add(victim.seq)
                    victim.cancel()

            box.append(eng.schedule_at(t, cb))
            queued.append(box[0])

        for _ in range(60):
            spawn(rng.choice([0.5, 1.0, 1.0, 2.25, 2.25, 4.0, 7.5]))
        eng.run(until=40.0)
        assert executed == sorted(executed)
        assert cancelled_early  # the workload really cancels queued events
        assert not cancelled_early & {seq for _, seq in executed}
        assert eng.events_processed == len(executed)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = SimulationEngine()
        fired = []
        ev = eng.schedule_at(1.0, lambda: fired.append(1))
        ev.cancel()
        eng.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        eng = SimulationEngine()
        ev = eng.schedule_at(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        eng.run()

    def test_pending_excludes_cancelled(self):
        eng = SimulationEngine()
        eng.schedule_at(1.0, lambda: None)
        ev = eng.schedule_at(2.0, lambda: None)
        ev.cancel()
        assert eng.pending_live == 1

    def test_cancel_same_time_event_from_callback(self):
        eng = SimulationEngine()
        log = []
        victim = None

        def killer():
            log.append("killer")
            victim.cancel()

        eng.schedule_at(1.0, killer)
        victim = eng.schedule_at(1.0, lambda: log.append("victim"))
        eng.schedule_at(1.0, lambda: log.append("survivor"))
        eng.run()
        assert log == ["killer", "survivor"]
        assert eng.events_processed == 2
        assert eng.pending_live == 0
        assert eng.pending_events == 0

    def test_cancel_same_time_event_from_callback_with_observer(self):
        """A tie cancelled by an earlier tie's callback is not processed and
        fires no observer hooks."""

        class Recorder:
            def __init__(self):
                self.begun = []

            def event_begin(self, event):
                self.begun.append(event.name)

            def event_end(self, event):
                pass

        eng = SimulationEngine()
        recorder = Recorder()
        eng.set_observer(recorder)
        log = []
        targets = []

        def kill_all():
            log.append("killer")
            for t in targets:
                t.cancel()

        eng.schedule_at(1.0, kill_all, name="killer")
        for i in range(3):
            targets.append(
                eng.schedule_at(1.0, lambda i=i: log.append(i), name=f"victim-{i}")
            )
        eng.schedule_at(2.0, lambda: log.append("after"), name="after")
        eng.run()
        assert log == ["killer", "after"]
        assert eng.events_processed == 2
        assert recorder.begun == ["killer", "after"]
        assert eng.pending_live == 0
        assert eng.pending_events == 0

    def test_cancel_after_execution_is_noop(self):
        eng = SimulationEngine()
        log = []
        ev = eng.schedule_at(1.0, lambda: log.append("ran"))
        eng.run()
        ev.cancel()  # must not touch the (empty) heap accounting
        assert eng.pending_live == 0 and eng.pending_events == 0
        eng.schedule_at(2.0, lambda: log.append("later"))
        eng.run()
        assert log == ["ran", "later"]


class TestRunControl:
    def test_run_until_bounds_clock(self):
        eng = SimulationEngine()
        fired = []
        eng.schedule_at(1.0, lambda: fired.append(1))
        eng.schedule_at(10.0, lambda: fired.append(10))
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0  # clock advanced to the bound

    def test_event_exactly_at_until_fires(self):
        eng = SimulationEngine()
        fired = []
        eng.schedule_at(5.0, lambda: fired.append(5))
        eng.run(until=5.0)
        assert fired == [5]

    def test_until_boundary(self):
        eng = SimulationEngine()
        fired = []
        for t in (1.0, 2.0, 3.0):
            eng.schedule_at(t, lambda t=t: fired.append(t))
        assert eng.run(until=2.0) == 2.0
        assert fired == [1.0, 2.0]  # events at exactly `until` execute
        assert eng.pending_live == 1

    def test_pending_counts_inside_ties(self):
        """A callback sees the true remaining work, ties included: with
        three events at t=1 and one at t=2 the callbacks read 3, 2, 1, 0."""
        eng = SimulationEngine()
        seen = []

        def record():
            seen.append((eng.pending_live, eng.pending_events))

        for t in (1.0, 1.0, 1.0, 2.0):
            eng.schedule_at(t, record)
        eng.run()
        assert seen == [(3, 3), (2, 2), (1, 1), (0, 0)]

    def test_run_resumes_after_until(self):
        eng = SimulationEngine()
        fired = []
        eng.schedule_at(10.0, lambda: fired.append(10))
        eng.run(until=5.0)
        eng.run()
        assert fired == [10]

    def test_step_executes_single_event(self):
        eng = SimulationEngine()
        fired = []
        eng.schedule_at(1.0, lambda: fired.append(1))
        eng.schedule_at(2.0, lambda: fired.append(2))
        assert eng.step() is True
        assert fired == [1]
        assert eng.step() is True
        assert eng.step() is False

    def test_events_processed_counts_fired_only(self):
        eng = SimulationEngine()
        eng.schedule_at(1.0, lambda: None)
        ev = eng.schedule_at(2.0, lambda: None)
        ev.cancel()
        eng.run()
        assert eng.events_processed == 1

    def test_reentrant_run_rejected(self):
        eng = SimulationEngine()

        def reenter():
            with pytest.raises(SimulationError):
                eng.run()

        eng.schedule_at(1.0, reenter)
        eng.run()


class TestPeriodicTimer:
    def test_fires_every_period(self):
        eng = SimulationEngine()
        times = []
        PeriodicTimer(eng, period=2.0, callback=lambda: times.append(eng.now))
        eng.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_phase_offsets_first_firing(self):
        eng = SimulationEngine()
        times = []
        PeriodicTimer(eng, period=2.0, callback=lambda: times.append(eng.now), phase=0.5)
        eng.run(until=5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_stop_halts_firings(self):
        eng = SimulationEngine()
        times = []
        timer = PeriodicTimer(eng, period=1.0, callback=lambda: times.append(eng.now))
        eng.schedule_at(2.5, timer.stop)
        eng.run(until=10.0)
        assert times == [1.0, 2.0]
        assert timer.stopped

    def test_callback_can_stop_own_timer(self):
        eng = SimulationEngine()
        times = []
        timer = None

        def cb():
            times.append(eng.now)
            if len(times) == 3:
                timer.stop()

        timer = PeriodicTimer(eng, period=1.0, callback=cb)
        eng.run(until=100.0)
        assert times == [1.0, 2.0, 3.0]

    def test_nonpositive_period_rejected(self):
        eng = SimulationEngine()
        with pytest.raises(SimulationError):
            PeriodicTimer(eng, period=0.0, callback=lambda: None)


def test_ms_converts_to_seconds():
    assert ms(50.0) == 0.05
    assert ms(0.0) == 0.0
