"""The structured trace bus: one typed event schema for every layer.

An :class:`ObsEvent` is a timestamped, typed record with a small
JSON-able detail dict.  Emitters (the HTM machine, the fault injector,
the synthetic harness, the result cache, the CLI checkpointer) publish
to the process's active :class:`TraceBus`; sinks subscribe.  The
per-machine :class:`repro.sim.trace.Tracer` is one such sink — its
``TraceEvent`` *is* this class.

Canonical event kinds (full schema in docs/OBSERVABILITY.md):

==================  ======================================================
``txn_begin``       transaction opened (core)
``commit``          transaction committed (core, duration)
``abort``           transaction aborted (core, reason, age)
``conflict``        conflicting probe delayed (core, line, requestor, k,
                    delay, mode)
``grace_granted``   grace/backstop timer armed (core, delay, mode)
``grace_expired``   grace timer fired with the transaction still live
                    (core, mode)
``fault_injected``  injector fired (fault, n)
``checkpoint_written``  journal record committed (path, kind, seq)
``cache_hit`` / ``cache_miss``  result-cache lookup (exp_id)
``synthetic_run``   one synthetic harness run completed (distribution,
                    trials, B, mu, per-policy means)
``worker_crashed``  supervised worker died or hung (worker, cause,
                    exp_id)
``worker_restarted``  replacement worker spawned (restarts_used,
                    budget)
``journal_recovered``  torn checkpoint tail truncated on recovery
                    (path, kept, dropped_records, dropped_bytes)
``degraded_to_serial``  worker pool exhausted; remaining tasks run
                    serially in the parent (remaining, restarts_used)
``decision_served``  decision service answered one conflict request
                    (seq, action, grace, regime, policy)
``regime_switch``   adaptive policy re-dispatched to a new theorem
                    regime (seq, old, new, k, mu_over_b)
``loadgen_phase``   load generator crossed a workload-phase boundary
                    (phase, first_seq, mu, rate)
``ablation_run``    one ablation matrix cell measured (flip, workload,
                    replicates)
==================  ======================================================

Serialization is canonical — ``json.dumps(..., sort_keys=True)`` with
compact separators — so two event streams are equal iff their JSONL
bytes are equal; the parallel layer's determinism CI step diffs exactly
these bytes across ``--jobs`` values.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ObsEvent",
    "TraceBus",
    "ListSink",
    "JsonlSink",
    "NullBus",
    "NULL_BUS",
    "get_bus",
    "use_bus",
    "enable_tracing",
    "disable_tracing",
    "jsonl_line",
    "write_jsonl",
    "chrome_trace",
    "EVENT_KINDS",
]

#: The documented event vocabulary.  The bus does not reject other
#: kinds (embedders may extend it), but everything the tree emits is
#: listed here and in docs/OBSERVABILITY.md.
EVENT_KINDS = frozenset(
    {
        "txn_begin",
        "commit",
        "abort",
        "conflict",
        "grace_granted",
        "grace_expired",
        "fault_injected",
        "checkpoint_written",
        "cache_hit",
        "cache_miss",
        "synthetic_run",
        "worker_crashed",
        "worker_restarted",
        "journal_recovered",
        "degraded_to_serial",
        "decision_served",
        "regime_switch",
        "loadgen_phase",
        "ablation_run",
    }
)

#: Timestamp used for operational events that happen outside any
#: simulation clock (cache lookups, synthetic summaries): a fixed
#: sentinel, never a wall-clock read, so streams stay deterministic.
NO_SIM_TIME = 0.0


@dataclass(frozen=True)
class ObsEvent:
    """One timestamped record (also ``repro.sim.trace.TraceEvent``)."""

    time: float
    kind: str
    core: int = -1
    detail: dict = field(default_factory=dict)

    def format(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:>12.1f}] core{self.core:<3d} {self.kind:<18s} {extras}"


def jsonl_line(event: ObsEvent) -> str:
    """Canonical one-line JSON for an event (no trailing newline)."""
    return json.dumps(
        {
            "ts": event.time,
            "kind": event.kind,
            "core": event.core,
            "data": event.detail,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def write_jsonl(events: Iterable[ObsEvent], path) -> int:
    """Write events as JSONL; returns the number of lines written."""
    count = 0
    with open(path, "w") as fh:
        for event in events:
            fh.write(jsonl_line(event) + "\n")
            count += 1
    return count


def chrome_trace(events: Iterable[ObsEvent]) -> dict:
    """Events in Chrome ``trace_event`` JSON (open in about:tracing or
    Perfetto).  Commits with a ``duration`` detail become complete
    ("X") slices ending at the commit instant; everything else is an
    instant ("i") event.  ``tid`` is the core (-1 for machine-level
    events)."""
    trace_events = []
    for event in events:
        common = {
            "name": event.kind,
            "pid": 0,
            "tid": event.core,
            "cat": "repro",
            "args": event.detail,
        }
        duration = event.detail.get("duration")
        if event.kind == "commit" and isinstance(duration, (int, float)):
            trace_events.append(
                {
                    **common,
                    "ph": "X",
                    "ts": event.time - duration,
                    "dur": duration,
                }
            )
        else:
            trace_events.append(
                {**common, "ph": "i", "ts": event.time, "s": "t"}
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ns"}


class ListSink:
    """Append every event to a list (the capture sink)."""

    def __init__(self) -> None:
        self.events: list[ObsEvent] = []

    def record(self, event: ObsEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()


class JsonlSink:
    """Accumulate events and write them out as canonical JSONL."""

    def __init__(self) -> None:
        self.events: list[ObsEvent] = []

    def record(self, event: ObsEvent) -> None:
        self.events.append(event)

    def dump(self, path) -> int:
        return write_jsonl(self.events, path)


class TraceBus:
    """Fan events out to subscribed sinks."""

    enabled = True

    def __init__(self) -> None:
        self._sinks: list = []
        self.emitted = 0

    def subscribe(self, sink) -> None:
        """Attach ``sink`` (anything with ``record(event)``)."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    def unsubscribe(self, sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def emit(self, time: float, kind: str, core: int = -1, **detail) -> ObsEvent:
        """Build and publish one event; returns it."""
        event = ObsEvent(time, kind, core, detail)
        self.publish(event)
        return event

    def publish(self, event: ObsEvent) -> None:
        """Deliver an already-built event (snapshot replay path)."""
        self.emitted += 1
        for sink in self._sinks:
            sink.record(event)


class NullBus:
    """Disabled bus: emitters check ``enabled`` and skip the detail
    dict construction entirely, so the off path costs one attribute
    read."""

    enabled = False
    emitted = 0

    def subscribe(self, sink) -> None:
        return None

    def unsubscribe(self, sink) -> None:
        return None

    def emit(self, time: float, kind: str, core: int = -1, **detail) -> None:
        return None

    def publish(self, event: ObsEvent) -> None:
        return None


#: Shared disabled bus (the default module-level state).
NULL_BUS = NullBus()

_active: TraceBus | NullBus = NULL_BUS


def get_bus() -> TraceBus | NullBus:
    """The process's active trace bus (the null bus when disabled)."""
    return _active


def enable_tracing(bus: TraceBus | None = None) -> TraceBus:
    """Install (and return) a live module-level bus."""
    global _active
    _active = bus if bus is not None else TraceBus()
    return _active


def disable_tracing() -> None:
    global _active
    _active = NULL_BUS


@contextmanager
def use_bus(bus: TraceBus | NullBus) -> Iterator[TraceBus | NullBus]:
    """Scoped :func:`enable_tracing`: restores the previous bus."""
    global _active
    previous = _active
    _active = bus
    try:
        yield bus
    finally:
        _active = previous


def replay(events: Sequence[ObsEvent], bus: TraceBus | NullBus) -> None:
    """Publish already-built events onto ``bus`` in order (how worker
    event streams are folded into the parent's bus)."""
    for event in events:
        bus.publish(event)
