"""Unified observability layer: metrics, structured tracing, profiling.

Three coordinated pieces (docs/OBSERVABILITY.md):

* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry`
  of counters, gauges and fixed-edge histograms with cheap no-op
  handles when disabled, and deterministic snapshot merging.
* :mod:`repro.obs.tracebus` — a :class:`TraceBus` of typed
  :class:`ObsEvent` records with JSONL and Chrome ``trace_event``
  serialization; the per-machine :class:`repro.sim.trace.Tracer` is a
  sink on it.
* :mod:`repro.obs.profile` — :class:`PhaseProfiler` for per-phase wall
  clock and event-loop occupancy in the simulation kernel.

The usual entry point is :func:`capture`: it installs a fresh registry
and bus for the duration of a block and hands back everything recorded,
which is exactly what the CLI's ``--metrics-out``/``--trace-out`` and
the supervised pool's per-worker collection do.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    merge_snapshots,
    use_registry,
)
from repro.obs.profile import PhaseProfiler
from repro.obs.tracebus import (
    EVENT_KINDS,
    JsonlSink,
    ListSink,
    NULL_BUS,
    NullBus,
    ObsEvent,
    TraceBus,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    get_bus,
    jsonl_line,
    use_bus,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "use_registry",
    "enable_metrics",
    "disable_metrics",
    "merge_snapshots",
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
    "PhaseProfiler",
    "Capture",
    "capture",
    "obs_active",
]


def obs_active() -> bool:
    """True when a live registry or bus is installed process-wide."""
    return get_registry().enabled or get_bus().enabled


class Capture:
    """What :func:`capture` collected: a registry plus an event list."""

    def __init__(self, registry: MetricsRegistry, sink: ListSink) -> None:
        self.registry = registry
        self._sink = sink

    @property
    def events(self) -> list[ObsEvent]:
        return self._sink.events

    def snapshot(self) -> dict:
        return self.registry.snapshot()


@contextmanager
def capture() -> Iterator[Capture]:
    """Install a fresh registry + bus for the block; yields the capture.

    Everything emitted inside the block — machine counters chained to
    the registry, bus events from any layer — is recorded; the previous
    registry/bus are restored on exit.  The capture object stays valid
    after the block (snapshots and events are read after restoration).
    """
    registry = MetricsRegistry()
    bus = TraceBus()
    sink = ListSink()
    bus.subscribe(sink)
    with use_registry(registry), use_bus(bus):
        yield Capture(registry, sink)
