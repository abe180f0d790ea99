"""Structured event tracing for simulations.

A :class:`Tracer` is a bounded, filterable record of simulation events
— conflict decisions, aborts, commits, probe deliveries — that the HTM
machine emits.  It exists for debuggability: the wedge self-deadlock
documented in DESIGN.md §5b.2 was found by staring at exactly this kind
of timeline.

The tracer is a sink on the trace bus: :class:`TraceEvent` *is*
:class:`repro.obs.tracebus.ObsEvent`, and a machine delivers its events
only to its bus (``machine.bus``, the process bus at construction), so
a per-machine timeline subscribes a tracer to a bus of its own
(docs/OBSERVABILITY.md).

Usage::

    tracer = Tracer(capacity=10_000)
    machine = Machine(params, policy_factory)
    machine.bus = TraceBus()
    machine.bus.subscribe(tracer)
    ...
    print(tracer.render(kinds={"abort", "grace"}))
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable

from repro.errors import InvalidParameterError
from repro.obs.tracebus import ObsEvent as TraceEvent

__all__ = ["TraceEvent", "Tracer"]


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent`.

    ``kinds`` (optional) restricts recording to a set of event kinds;
    everything else is dropped at record time (cheap — one set lookup).
    """

    def __init__(
        self, capacity: int = 100_000, kinds: Iterable[str] | None = None
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.kinds = set(kinds) if kinds is not None else None
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0
        self.dropped_by_filter = 0

    # -- emission ---------------------------------------------------------
    def emit(self, time: float, kind: str, core: int, **detail) -> None:
        self.record(TraceEvent(time, kind, core, detail))

    def record(self, event: TraceEvent) -> None:
        """Bus-sink entry point: filter, then buffer."""
        if self.kinds is not None and event.kind not in self.kinds:
            self.dropped_by_filter += 1
            return
        self._events.append(event)
        self.emitted += 1

    # -- queries ------------------------------------------------------------
    def events(
        self,
        *,
        kinds: Iterable[str] | None = None,
        core: int | None = None,
        since: float = 0.0,
    ) -> list[TraceEvent]:
        wanted = set(kinds) if kinds is not None else None
        return [
            e
            for e in self._events
            if (wanted is None or e.kind in wanted)
            and (core is None or e.core == core)
            and e.time >= since
        ]

    def counts(self) -> dict[str, int]:
        """Events per kind currently buffered."""
        return dict(Counter(e.kind for e in self._events))

    def render(self, **query) -> str:
        """Formatted timeline of the matching events."""
        lines = [e.format() for e in self.events(**query)]
        return "\n".join(lines) if lines else "(no matching events)"

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)
