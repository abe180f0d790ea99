"""Tests for the discrete-event simulation kernel.

A scheduled event is the list ``[time, seq, handler, args, label]``,
returned as its handle; ``EventQueue.pop`` hands back
``(time, handler, args, label)``.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.obs.profile import PhaseProfiler
from repro.sim.engine import EventQueue, Simulator


def fire_next(q: EventQueue):
    """Pop the earliest live event and run it; returns its time."""
    when, handler, args, _ = q.pop()
    handler(*args)
    return when


def mark_dead(entry: list) -> None:
    """Kill an entry the way ``cancel`` does, minus the queue's
    bookkeeping (so no compaction can run)."""
    entry[2] = None


class TestEventQueue:
    def test_fifo_at_equal_time(self):
        q = EventQueue()
        order = []
        for tag in "abc":
            q.push(5.0, order.append, (tag,))
        while q:
            fire_next(q)
        assert order == ["a", "b", "c"]

    def test_time_ordering(self):
        q = EventQueue()
        order = []
        for t in (3.0, 1.0, 2.0):
            q.push(t, order.append, (t,))
        while q:
            fire_next(q)
        assert order == [1.0, 2.0, 3.0]

    def test_cancel_skipped(self):
        q = EventQueue()
        fired = []
        evt = q.push(1.0, fired.append, (1,))
        q.push(2.0, fired.append, (2,))
        q.cancel(evt)
        assert len(q) == 1
        while q:
            fire_next(q)
        assert fired == [2]

    def test_double_cancel_safe(self):
        q = EventQueue()
        evt = q.push(1.0, lambda: None)
        q.cancel(evt)
        q.cancel(evt)
        assert len(q) == 0
        assert q.heap_size() == 1  # one corpse, counted once

    def test_cancel_after_pop_is_noop(self):
        q = EventQueue()
        evt = q.push(1.0, lambda: None, label="tick")
        when, _, args, label = q.pop()
        assert (when, args, label) == (1.0, (), "tick")
        q.cancel(evt)
        assert len(q) == 0
        assert not q
        assert q.pop() is None

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        evt = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(evt)
        assert q.peek_time() == 2.0

    def test_empty_pop(self):
        assert EventQueue().pop() is None
        assert EventQueue().peek_time() is None

    def test_infinite_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(math.inf, lambda: None)
        with pytest.raises(SimulationError):
            Simulator().at(math.inf, lambda: None)
        with pytest.raises(SimulationError):
            Simulator().after(math.inf, lambda: None)
        with pytest.raises(SimulationError):
            Simulator().at(math.nan, lambda: None)
        with pytest.raises(SimulationError, match="must be finite"):
            EventQueue().push(math.nan, lambda: None)
        with pytest.raises(SimulationError, match="must be finite"):
            Simulator().after(math.nan, lambda: None)
        with pytest.raises(SimulationError, match="negative delay"):
            Simulator().after(-math.inf, lambda: None)


class TestCompaction:
    """Lazy-deletion bookkeeping: cancelled events must not accumulate
    in the physical heap once they outnumber the live ones."""

    def test_heavy_cancellation_compacts(self):
        q = EventQueue()
        events = [q.push(float(t), lambda: None) for t in range(500)]
        keep = events[::10]
        for evt in events:
            if evt not in keep:
                q.cancel(evt)
        assert len(q) == len(keep)
        # rebuilds happened along the way; at most one compaction
        # window of corpses (COMPACT_MIN_DEAD) may remain
        assert q.heap_size() <= len(keep) + EventQueue.COMPACT_MIN_DEAD

    def test_small_queues_never_compact(self):
        q = EventQueue()
        events = [q.push(float(t), lambda: None) for t in range(40)]
        for evt in events:
            q.cancel(evt)
        # below COMPACT_MIN_DEAD: lazy deletion only, no rebuild
        assert len(q) == 0
        assert q.heap_size() == 40
        assert q.pop() is None
        assert q.heap_size() == 0  # popping drains the corpses

    def test_firing_order_survives_compaction(self):
        """Equal-time events must still fire in insertion order after a
        rebuild (the (time, seq) key is preserved by heapify)."""

        def run(compact: bool) -> list[int]:
            q = EventQueue()
            order: list[int] = []
            live = [q.push(5.0, order.append, (tag,)) for tag in range(200)]
            dead = [q.push(4.0, order.append, (-1,)) for _ in range(300)]
            if compact:
                for evt in dead:
                    q.cancel(evt)  # triggers compaction
                assert (
                    q.heap_size()
                    <= len(live) + EventQueue.COMPACT_MIN_DEAD
                )
            else:
                for evt in dead:
                    mark_dead(evt)
            while q.peek_time() is not None:
                fire_next(q)
            return order

        assert run(compact=True) == run(compact=False) == list(range(200))

    def test_cancellation_storm_keeps_heap_bounded(self):
        """The grace-timer pattern: schedule + cancel in a loop must not
        grow the physical heap without bound."""
        q = EventQueue()
        def anchor():
            pass

        q.push(1e9, anchor)
        for t in range(10_000):
            q.cancel(q.push(float(t), lambda: None))
        assert len(q) == 1
        assert q.heap_size() <= 2 * EventQueue.COMPACT_MIN_DEAD + 2
        assert q.pop()[:2] == (1e9, anchor)

    def test_compaction_inside_run(self):
        """A handler cancels enough pending events to compact the heap
        while run() holds it, then schedules follow-ups: everything must
        fire exactly as when the same events are only marked dead."""

        def run(compact: bool) -> tuple[list, int, list[int]]:
            sim = Simulator()
            order: list = []
            sizes: list[int] = []
            doomed = [
                sim.at(10.0 + t, order.append, ("dead", t))
                for t in range(3 * EventQueue.COMPACT_MIN_DEAD)
            ]
            for t in (2.0, 6.0, 50.0, 500.0):
                sim.at(t, order.append, ("live", t))

            def storm():
                for evt in doomed:
                    if compact:
                        sim.cancel(evt)
                    else:
                        mark_dead(evt)
                sizes.append(sim.queue.heap_size())
                for k in (0.0, 4.0, 4.0, 20.0, 700.0):
                    sim.after(k, order.append, ("follow", k))

            sim.at(3.0, storm)
            sim.run()
            return order, sim.events_fired, sizes

        compacted, fired, sizes = run(compact=True)
        # the storm compacted the heap mid-run
        assert sizes[0] <= 8 + EventQueue.COMPACT_MIN_DEAD
        assert (compacted, fired) == run(compact=False)[:2]
        assert compacted == [
            ("live", 2.0), ("follow", 0.0), ("live", 6.0), ("follow", 4.0),
            ("follow", 4.0), ("follow", 20.0), ("live", 50.0),
            ("live", 500.0), ("follow", 700.0),
        ]
        assert fired == len(compacted) + 1  # + the storm itself

    def test_simulator_cancel_compacts(self):
        sim = Simulator()
        keeper = []
        sim.at(50.0, lambda: keeper.append(sim.now))
        for t in range(300):
            sim.cancel(sim.at(float(t), lambda: None))
        assert sim.queue.heap_size() <= EventQueue.COMPACT_MIN_DEAD + 2
        sim.run()
        assert keeper == [50.0]


class TestSimulator:
    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.at(5.0, lambda: times.append(sim.now))
        sim.at(2.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.0, 5.0]
        assert sim.now == 5.0

    def test_after_relative(self):
        sim = Simulator()
        seen = []

        def chain():
            seen.append(sim.now)
            if len(seen) < 3:
                sim.after(10.0, chain)

        sim.after(10.0, chain)
        sim.run()
        assert seen == [10.0, 20.0, 30.0]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().after(-1.0, lambda: None)

    def test_until_exclusive(self):
        sim = Simulator()
        fired = []
        sim.at(10.0, lambda: fired.append(1))
        sim.run(until=10.0)
        assert fired == []
        sim.run()  # resume
        assert fired == [1]

    def test_event_at_until_goes_back_on_the_heap(self):
        """The run loop pops an event at exactly ``until`` and puts it
        back unfired: its handle still cancels it, and otherwise it
        fires first in the next run, ahead of a later-scheduled event at
        the same time."""
        sim = Simulator()
        fired = []
        sim.at(10.0, fired.append, "a")
        sim.at(12.0, fired.append, "c")
        sim.run(until=10.0)
        assert fired == [] and sim.now == 10.0
        assert len(sim.queue) == 2 and sim.queue.heap_size() == 2
        sim.at(10.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

        sim = Simulator()
        fired = []
        handle = sim.at(10.0, fired.append, "a")
        sim.at(12.0, fired.append, "c")
        sim.run(until=10.0)
        sim.cancel(handle)
        assert len(sim.queue) == 1
        sim.run()
        assert fired == ["c"] and sim.events_fired == 1

    def test_cancelled_entries_popped_keep_counts(self):
        """Cancelled entries the run loop pops leave ``len`` (live
        events) and ``heap_size`` (physical entries) consistent."""
        sim = Simulator()
        fired = []
        handles = [sim.at(float(t), fired.append, t) for t in range(10)]
        for t in (1, 3, 4, 8):
            sim.cancel(handles[t])
        assert len(sim.queue) == 6 and sim.queue.heap_size() == 10
        sim.run(until=6.0)  # fires 0, 2, 5; pops the dead 1, 3, 4
        assert fired == [0, 2, 5]
        assert len(sim.queue) == 3  # 6, 7 and 9
        assert sim.queue.heap_size() == 4  # and the dead 8
        sim.run()
        assert fired == [0, 2, 5, 6, 7, 9]
        assert len(sim.queue) == 0 and sim.queue.heap_size() == 0
        assert not sim.queue

    def test_raising_handler_still_counts(self):
        """A handler that raises has fired: the call's count, its own
        event included, reaches ``events_fired``, and the simulator can
        run again."""
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.at(1.0, lambda: None)
        sim.at(2.0, boom)
        sim.at(3.0, lambda: None)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(until=10.0)
        assert sim.events_fired == 2 and sim.now == 2.0
        sim.run()
        assert sim.events_fired == 3 and sim.now == 3.0

    def test_until_advances_clock(self):
        sim = Simulator()
        sim.at(100.0, lambda: None)
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_max_events(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(1)
            sim.after(1.0, tick)

        sim.after(1.0, tick)
        sim.run(max_events=5)
        assert len(count) == 5

    def test_stop_when(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(1)
            sim.after(1.0, tick)

        sim.after(1.0, tick)
        sim.run(stop_when=lambda: len(count) >= 3)
        assert len(count) == 3

    def test_cancel_via_simulator(self):
        sim = Simulator()
        fired = []
        evt = sim.at(1.0, lambda: fired.append(1))
        sim.cancel(evt)
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        """Cancelling a handle whose event already fired leaves the
        queue's counts alone (it used to drive the live count negative,
        so ``len`` raised)."""
        sim = Simulator()
        fired = []
        handles = [sim.after(5, fired.append, t) for t in range(3)]
        sim.run()
        for handle in handles:
            sim.cancel(handle)
        assert len(sim.queue) == 0
        assert sim.queue.heap_size() == 0
        sim.after(1, fired.append, 9)
        assert len(sim.queue) == 1
        sim.run()
        assert fired == [0, 1, 2, 9]

    def test_handler_cancelling_its_own_event(self):
        """A handler may cancel the handle of the event that is running
        it (a fault-injected abort timer does, through the transaction's
        end): a no-op that leaves no phantom dead entry behind."""
        sim = Simulator()
        handles = []
        handles.append(sim.after(1, lambda: sim.cancel(handles[0])))
        for t in range(3):
            sim.after(2 + t, lambda: None)
        sim.run(until=1.5)
        assert len(sim.queue) == 3
        assert sim.queue.heap_size() == 3
        sim.run()
        assert sim.events_fired == 4
        assert len(sim.queue) == 0

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.at(float(t), lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_not_reentrant(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.at(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_handler_args(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, lambda a, b: seen.append(a + b), 2, 3)
        sim.run()
        assert seen == [5]

    def test_profiler_counts_labels(self):
        sim = Simulator()
        sim.profiler = profiler = PhaseProfiler()
        fired = []
        for t in range(3):
            sim.at(float(t), fired.append, t, label="tick")
        sim.at(5.0, fired.append, 5)  # unlabeled
        sim.run()
        assert fired == [0, 1, 2, 5]
        assert profiler.handlers["tick"][0] == 3
        assert profiler.handlers["<unlabeled>"][0] == 1

    def test_deterministic_replay(self):
        def build_and_run():
            sim = Simulator()
            log = []
            for t in (3.0, 1.0, 1.0, 2.0):
                sim.at(t, lambda tt=t: log.append((sim.now, tt)))
            sim.run()
            return log

        assert build_and_run() == build_and_run()
