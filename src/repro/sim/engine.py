"""Event-driven simulation kernel.

Design notes
------------
* **Stable ordering.**  Events at equal timestamps fire in insertion
  order (a monotonically increasing sequence number breaks heap ties).
  Deterministic tie-breaking is what makes every simulation in this
  repository exactly reproducible for a fixed seed.
* **One list per event.**  A scheduled event is the mutable list
  ``[time, seq, handler, args, label]``.  The same list is the heap
  entry and the handle that :meth:`Simulator.at` / :meth:`Simulator.after`
  return, so scheduling allocates one object.  ``heapq`` compares lists
  in C, and ``seq`` is unique, so a comparison never gets past
  ``(time, seq)``.  Callers treat a handle as opaque: all they may do
  with it is pass it to ``cancel``.
* **Cancellation by invalidation.**  ``cancel()`` clears the entry's
  handler slot in O(1); dead entries are skipped on pop (the standard
  lazy-deletion heap idiom — cheaper than heap surgery and amortized
  O(log n)).  Firing clears the slot too, so cancelling an entry that
  already fired or was already cancelled is a no-op.  When dead entries
  outnumber live ones the heap is *compacted* (rebuilt from the live
  entries) so long adversarial runs with heavy cancellation — grace
  timers killed by cycle aborts, fault-injected spurious aborts — keep
  memory proportional to live events instead of growing without bound.
  Compaction rebuilds the heap list *in place*: the simulator holds
  that list for :meth:`Simulator.at` / :meth:`Simulator.after` and
  :meth:`Simulator.run` holds it across handler calls, and a handler may
  cancel enough events to compact mid-run.
* **No co-routines.**  Handlers are plain callables; components keep
  explicit state machines.  This is intentional: the HTM controllers
  are specified as state machines (MSI tables), and explicit states are
  what the protocol invariant checks inspect.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["EventQueue", "Simulator"]

_heappush = heapq.heappush
_INF = math.inf


class _Firing:
    """A fired event as an attached profiler sees it.

    Built only when a profiler is attached: ``record_fire`` receives the
    bound :meth:`fire`, and ``fire.__self__.handler`` names the handler
    it runs (profilers attribute handler time by its module)."""

    __slots__ = ("handler", "args")

    def __init__(self, handler: Callable[..., None], args: tuple) -> None:
        self.handler = handler
        self.args = args

    def fire(self) -> None:
        self.handler(*self.args)


class EventQueue:
    """Binary-heap priority queue of event entries with lazy deletion.

    An entry is the list ``[time, seq, handler, args, label]``; a dead
    (cancelled or fired) entry has ``handler`` None.  Only cancelled
    entries stay in the heap dead, and ``_dead`` counts them, so the
    live count is ``len(heap) - _dead``.  Dead entries are skipped on
    pop; when they outnumber the live entries the heap is compacted.
    Without compaction a long run that cancels faster than it pops —
    adversarial cycle-abort storms cancelling grace timers,
    fault-injected abort timers — grows the heap without bound.
    """

    #: Compaction only kicks in above this many dead events, so small
    #: queues never pay a rebuild.
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        # [time, seq, handler, args, label] entries; the list object is
        # never replaced
        self._heap: list[list] = []
        self._counter = itertools.count()
        self._dead = 0

    def push(
        self,
        time: float,
        handler: Callable[..., None],
        args: tuple = (),
        label: str = "",
    ) -> list:
        """Schedule ``handler(*args)`` at ``time``; returns the entry,
        which is also its handle for :meth:`cancel`."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time}")
        entry = [time, next(self._counter), handler, args, label]
        heapq.heappush(self._heap, entry)
        return entry

    def pop(self) -> tuple[float, Callable[..., None], tuple, str] | None:
        """Pop the earliest live entry, or None when empty.

        Returns ``(time, handler, args, label)``; the entry counts as
        fired, so cancelling its handle afterwards is a no-op."""
        heap, heappop = self._heap, heapq.heappop
        while heap:
            entry = heappop(heap)
            handler = entry[2]
            if handler is None:
                self._dead -= 1
                continue
            entry[2] = None
            return entry[0], handler, entry[3], entry[4]
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def cancel(self, entry: list) -> None:
        """Kill a scheduled entry.  A no-op when it already fired or was
        already cancelled."""
        if entry[2] is None:
            return
        entry[2] = None
        dead = self._dead = self._dead + 1
        if dead > self.COMPACT_MIN_DEAD and 2 * dead > len(self._heap):
            self._compact()  # dead entries outnumber live ones

    def _compact(self) -> None:
        """Rebuild the heap from live entries only.  ``heapify`` is O(n)
        and the (time, seq) ordering is preserved exactly, so firing
        order — and therefore simulation determinism — is unaffected.

        The list is rebuilt in place: a running :meth:`Simulator.run`
        holds it, and events scheduled into a replacement list would
        never fire."""
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapq.heapify(heap)
        self._dead = 0

    def heap_size(self) -> int:
        """Physical heap length including dead entries (observability
        for the compaction tests and memory diagnostics)."""
        return len(self._heap)

    def __len__(self) -> int:
        return len(self._heap) - self._dead

    def __bool__(self) -> bool:
        return len(self._heap) > self._dead


class Simulator:
    """Simulation facade: a clock plus an event queue.

    Components schedule work with :meth:`at` / :meth:`after`; the main
    loop (:meth:`run`) advances the clock to each event in order.  Time
    is a float (the HTM layer uses integral cycle counts stored in
    floats; exactness holds below 2**53 cycles, far beyond any run).
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        # the queue's heap list (compaction keeps the same list) and its
        # sequence counter, held for the scheduling hot path
        self._heap = self.queue._heap
        self._next_seq = self.queue._counter.__next__
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
    # call and one list per scheduled event on the simulator's hottest
    # path.
    def at(
        self,
        time: float,
        handler: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> list:
        """Schedule ``handler(*args)`` at absolute ``time`` (>= now);
        returns the event's handle for :meth:`cancel`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self.now}"
            )
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time}")
        entry = [time, self._next_seq(), handler, args, label]
        _heappush(self._heap, entry)
        return entry

    def after(
        self,
        delay: float,
        handler: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> list:
        """Schedule ``handler(*args)`` after a relative ``delay`` >= 0;
        returns the event's handle for :meth:`cancel`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # delay >= 0, so the time is never in the past; ``not time < inf``
        # holds exactly for an infinite or NaN time
        time = self.now + delay
        if not time < _INF:
            raise SimulationError(f"event time must be finite, got {time}")
        entry = [time, self._next_seq(), handler, args, label]
        _heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Cancel a scheduled event by its handle (a no-op once it has
        fired or been cancelled)."""
        self.queue.cancel(entry)

    # -- main loop ---------------------------------------------------------
    def run(
        self,
        until: float = math.inf,
        *,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, ``stop_when``
        returns True, or ``max_events`` have fired.  Returns the final
        clock value.

        ``until`` is exclusive: an event at exactly ``until`` does not
        fire, and the clock is advanced to ``until`` when the horizon is
        the binding stop condition.

        The profiler is read once per call: attach it before ``run``.
        ``events_fired`` grows by this call's count when it returns or
        raises, so a handler reading it sees the count before the call.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        fired = 0
        now = self.now
        profiler = self.profiler
        if profiler is not None:
            profiler.loop_enter()
        # hoisted for the hot loop; the heap list is safe to hold because
        # EventQueue._compact rebuilds it in place
        queue = self.queue
        heap = self._heap
        heappop = heapq.heappop
        try:
            while True:
                if stop_when is not None and stop_when():
                    break
                if max_events is not None and fired >= max_events:
                    break
                # peek: drop dead entries off the top; stop once drained
                while heap:
                    entry = heap[0]
                    handler = entry[2]
                    if handler is not None:
                        break
                    heappop(heap)
                    queue._dead -= 1
                else:
                    break
                when = entry[0]
                if when >= until:
                    self.now = max(now, min(until, when))
                    break
                heappop(heap)
                if when < now:
                    raise SimulationError(
                        f"event queue produced a past event: {when} < {now}"
                    )
                self.now = now = when
                fired += 1
                # fired: a later cancel of this handle is a no-op
                entry[2] = None
                if profiler is not None:
                    profiler.record_fire(
                        entry[4] or "<unlabeled>",
                        _Firing(handler, entry[3]).fire,
                    )
                else:
                    handler(*entry[3])
        finally:
            self._running = False
            self.events_fired += fired
            if profiler is not None:
                profiler.loop_exit()
        return self.now
