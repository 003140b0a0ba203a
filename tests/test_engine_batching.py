"""Dispatch order and cancellation of the event queue.

The engine's contract is *observable equivalence* with a naive serial
loop: events execute in ``(time, seq)`` order, cancelled events never
execute, and the processed/pending accounting matches one-at-a-time
dispatch.  The ordering tests are parametrised over the queue kinds the
engine offers (today the binary heap alone); the equivalence test drives
the engine and a linear-scan reference queue through one randomized
workload and requires the same execution sequence.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import PeriodicTimer, SimulationEngine

QUEUES = pytest.mark.parametrize("make_engine", [SimulationEngine], ids=["heap"])


@QUEUES
class TestDispatchOrder:
    def test_ties_dispatch_in_schedule_order(self, make_engine):
        engine, log = make_engine(), []
        for i in range(5):
            engine.schedule_at(1.0, lambda i=i: log.append(i))
        engine.schedule_at(0.5, lambda: log.append("early"))
        engine.schedule_at(2.0, lambda: log.append("late"))
        engine.run()
        assert log == ["early", 0, 1, 2, 3, 4, "late"]
        assert engine.events_processed == 7

    def test_interleaved_times_and_ties(self, make_engine):
        engine, log = make_engine(), []
        times = [0.25, 0.75, 0.25, 0.5, 0.75, 0.25]
        for i, t in enumerate(times):
            engine.schedule_at(t, lambda i=i, t=t: log.append((t, i)))
        engine.run()
        assert log == sorted(log, key=lambda pair: (pair[0], pair[1]))

    def test_step(self, make_engine):
        engine, log = make_engine(), []
        engine.schedule_at(1.0, lambda: log.append("a"))
        engine.schedule_at(1.0, lambda: log.append("b"))
        assert engine.step() and log == ["a"]
        assert engine.step() and log == ["a", "b"]
        assert not engine.step()

    def test_periodic_timer(self, make_engine):
        engine, log = make_engine(), []
        timer = PeriodicTimer(engine, period=1.0, callback=lambda: log.append(engine.now))
        engine.run(until=3.5)
        timer.stop()
        assert log == [1.0, 2.0, 3.0]
        engine.run(until=10.0)
        assert log == [1.0, 2.0, 3.0]


@QUEUES
class TestCancellation:
    def test_cancel_before_run(self, make_engine):
        engine, log = make_engine(), []
        ev = engine.schedule_at(1.0, lambda: log.append("x"))
        engine.schedule_at(1.0, lambda: log.append("y"))
        ev.cancel()
        assert engine.pending_live == 1
        assert engine.pending_events == 2  # raw depth keeps the corpse
        engine.run()
        assert log == ["y"]
        assert engine.events_processed == 1
        assert engine.pending_live == 0


class _Handle:
    def __init__(self, time: float, seq: int, callback) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _ListEngine:
    """Reference queue: an unsorted list scanned for the ``(time, seq)``
    minimum on every pop, so its order is correct by inspection."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._queue: list[_Handle] = []
        self._seq = 0

    @property
    def pending_live(self) -> int:
        return sum(not h.cancelled for h in self._queue)

    def schedule_at(self, time: float, callback, name: str = "") -> _Handle:
        handle = _Handle(time, self._seq, callback)
        self._seq += 1
        self._queue.append(handle)
        return handle

    def run(self, until: float) -> float:
        while True:
            live = [h for h in self._queue if not h.cancelled]
            if not live:
                break
            head = min(live, key=lambda h: (h.time, h.seq))
            if head.time > until:
                break
            self._queue.remove(head)
            self.now = head.time
            self.events_processed += 1
            head.callback()
        self._queue = [h for h in self._queue if not h.cancelled]
        self.now = max(self.now, until)
        return self.now


class TestSchedulerEquivalence:
    def test_identical_dispatch_order_with_ties_and_cancels(self):
        """Drive the engine and the reference queue through the same
        randomized workload and require the exact same execution sequence."""

        def drive(engine) -> list:
            rng = random.Random(42)
            log: list = []
            handles: list = []

            def make(tag):
                def cb():
                    log.append((round(engine.now, 6), tag))
                    # Occasionally spawn and occasionally cancel.
                    if rng.random() < 0.3:
                        t = engine.now + rng.choice([0.0, 0.1, 0.5, 1.7, 3.0])
                        handles.append(
                            engine.schedule_at(t, make(f"{tag}.c"), name=str(tag))
                        )
                    if handles and rng.random() < 0.2:
                        handles.pop(rng.randrange(len(handles))).cancel()

                return cb

            for i in range(60):
                t = rng.choice([0.5, 1.0, 1.0, 2.25, 2.25, 4.0, 7.5])
                handles.append(engine.schedule_at(t, make(i), name=str(i)))
            engine.run(until=40.0)
            return [log, engine.events_processed, engine.pending_live]

        heap_run = drive(SimulationEngine())
        assert heap_run == drive(_ListEngine())
        assert heap_run[1] > 60  # the workload really spawns events
