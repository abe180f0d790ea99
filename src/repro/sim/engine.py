"""Event-driven simulation kernel.

Design notes
------------
* **Stable ordering.**  Events at equal timestamps fire in insertion
  order (a monotonically increasing sequence number breaks heap ties).
  Deterministic tie-breaking is what makes every simulation in this
  repository exactly reproducible for a fixed seed.
* **C-compared heap entries.**  The heap holds ``(time, seq, event)``
  tuples, so ``heapq`` orders them with C float/int comparisons.
  ``seq`` is unique, so two entries never get as far as comparing their
  events.  The entry format is private to this module.
* **Cancellation by invalidation.**  ``cancel()`` marks the event dead
  in O(1); dead events are skipped on pop (the standard lazy-deletion
  heap idiom — cheaper than heap surgery and amortized O(log n)).
  When dead events outnumber live ones the heap is *compacted* (rebuilt
  from the live events) so long adversarial runs with heavy
  cancellation — grace timers killed by cycle aborts, fault-injected
  spurious aborts — keep memory proportional to live events instead of
  growing without bound.  Compaction rebuilds the heap list *in place*:
  :meth:`Simulator.run` holds that list across handler calls, and a
  handler may cancel enough events to compact mid-run.
* **Watchdog.**  ``run(wall_deadline=...)`` checks the wall clock every
  few thousand events and raises
  :class:`~repro.errors.ExperimentTimeoutError` past the deadline — the
  kernel-level half of the experiment runner's timeout story (the
  runner also arms a signal-based watchdog for non-kernel loops).
* **No co-routines.**  Handlers are plain callables; components keep
  explicit state machines.  This is intentional: the HTM controllers
  are specified as state machines (MSI tables), and explicit states are
  what the protocol invariant checks inspect.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ExperimentTimeoutError, SimulationError

__all__ = ["Event", "EventQueue", "Simulator"]


@dataclass(order=False, slots=True)
class Event:
    """A scheduled callback.

    The queue orders events by ``(time, seq)``; ``seq`` is assigned when
    the event is scheduled.  ``__slots__`` keeps the per-event footprint
    flat — hot runs allocate millions of these.
    """

    time: float
    handler: Callable[..., None]
    args: tuple = ()
    label: str = ""
    seq: int = field(default=-1, compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True

    def fire(self) -> None:
        self.handler(*self.args)


class EventQueue:
    """Binary-heap priority queue of :class:`Event` with lazy deletion.

    Dead (cancelled) events are skipped on pop; when they outnumber the
    live events the heap is compacted.  Without compaction a long run
    that cancels faster than it pops — adversarial cycle-abort storms
    cancelling grace timers, fault-injected abort timers — grows the
    heap without bound.
    """

    #: Compaction only kicks in above this many dead events, so small
    #: queues never pay a rebuild.
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        # (time, seq, event) entries; the list object is never replaced
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self._dead = 0

    def push(self, event: Event) -> Event:
        if not math.isfinite(event.time):
            raise SimulationError(f"event time must be finite, got {event.time}")
        event.seq = seq = next(self._counter)
        heapq.heappush(self._heap, (event.time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event | None:
        """Pop the earliest live event, or None when empty."""
        heap, heappop = self._heap, heapq.heappop
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def cancel(self, event: Event) -> None:
        if not event.cancelled:
            event.cancel()
            self._live -= 1
            self._dead += 1
            if self._dead > self.COMPACT_MIN_DEAD and self._dead > self._live:
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live events only.  ``heapify`` is O(n)
        and the (time, seq) ordering is preserved exactly, so firing
        order — and therefore simulation determinism — is unaffected.

        The list is rebuilt in place: a running :meth:`Simulator.run`
        holds it, and events scheduled into a replacement list would
        never fire."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0

    def heap_size(self) -> int:
        """Physical heap length including dead entries (observability
        for the compaction tests and memory diagnostics)."""
        return len(self._heap)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class Simulator:
    """Simulation facade: a clock plus an event queue.

    Components schedule work with :meth:`at` / :meth:`after`; the main
    loop (:meth:`run`) advances the clock to each event in order.  Time
    is a float (the HTM layer uses integral cycle counts stored in
    floats; exactness holds below 2**53 cycles, far beyond any run).
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0.0
        self.events_fired = 0
        self._running = False
        # optional repro.obs.profile.PhaseProfiler: when attached, run()
        # routes handler firing through it (wall-clock handler timing +
        # loop occupancy).  Pure observation — timings never feed the
        # simulation, so determinism is untouched.
        self.profiler = None

    # -- scheduling -------------------------------------------------------
    # at() and after() push onto the queue's heap directly: one Python
    # call per scheduled event on the simulator's hottest path.
    def at(
        self,
        time: float,
        handler: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``handler(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self.now}"
            )
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time}")
        queue = self.queue
        seq = next(queue._counter)
        event = Event(time, handler, args, label, seq)
        heapq.heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    def after(
        self,
        delay: float,
        handler: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``handler(*args)`` after a relative ``delay`` >= 0."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        now = self.now
        time = now + delay
        if time < now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={now}"
            )
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time}")
        queue = self.queue
        seq = next(queue._counter)
        event = Event(time, handler, args, label, seq)
        heapq.heappush(queue._heap, (time, seq, event))
        queue._live += 1
        return event

    def cancel(self, event: Event) -> None:
        self.queue.cancel(event)

    # -- main loop ---------------------------------------------------------
    #: Events between wall-clock deadline checks (cheap enough to leave
    #: on; a check is one ``time.monotonic`` call per batch).
    WATCHDOG_EVERY = 4096

    def run(
        self,
        until: float = math.inf,
        *,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
        wall_deadline: float | None = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, ``stop_when``
        returns True, or ``max_events`` have fired.  Returns the final
        clock value.

        ``until`` is exclusive: an event at exactly ``until`` does not
        fire, and the clock is advanced to ``until`` when the horizon is
        the binding stop condition.

        ``wall_deadline`` is an absolute ``time.monotonic()`` instant;
        every :data:`WATCHDOG_EVERY` events the clock is checked and
        :class:`~repro.errors.ExperimentTimeoutError` raised past it.
        The simulation is left in a consistent (resumable) state — the
        deadline fires between events, never inside a handler.

        The profiler is read once per call: attach it before ``run``.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        fired = 0
        profiler = self.profiler
        if profiler is not None:
            profiler.loop_enter()
        # hoisted for the hot loop; the heap list is safe to hold because
        # EventQueue._compact rebuilds it in place
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        monotonic = time.monotonic
        watchdog_every = self.WATCHDOG_EVERY
        try:
            while True:
                if stop_when is not None and stop_when():
                    break
                if max_events is not None and fired >= max_events:
                    break
                if (
                    wall_deadline is not None
                    and fired % watchdog_every == 0
                    and monotonic() >= wall_deadline  # simlint: disable=DET001 -- watchdog wall-clock budget
                ):
                    raise ExperimentTimeoutError(
                        f"simulation exceeded its wall-clock budget at "
                        f"t={self.now:.0f} after {self.events_fired} events"
                    )
                # peek: drop dead entries off the top; stop once drained
                while heap:
                    when, _, event = heap[0]
                    if not event.cancelled:
                        break
                    heappop(heap)
                    queue._dead -= 1
                else:
                    break
                if when >= until:
                    self.now = max(self.now, min(until, when))
                    break
                heappop(heap)
                queue._live -= 1
                if when < self.now:
                    raise SimulationError(
                        f"event queue produced a past event: {when} < {self.now}"
                    )
                self.now = when
                self.events_fired += 1
                if profiler is not None:
                    profiler.record_fire(event.label or "<unlabeled>", event.fire)
                else:
                    event.handler(*event.args)
                fired += 1
        finally:
            self._running = False
            if profiler is not None:
                profiler.loop_exit()
        return self.now
