"""Profiling hooks: per-phase wall clock and event-loop occupancy.

A :class:`PhaseProfiler` measures where a machine run spends real time:
coarse phases (warmup / measure / drain, timed by ``Machine.run``) and
per-event-label handler time inside the simulation kernel
(``Simulator.run`` routes event firing through :meth:`record_fire`
when a profiler is attached).  It is the kernel's only per-label event
counter.

**Determinism note**: the profiler reads the host clock, but nothing it
measures ever feeds back into the simulation — it is pure observation,
attached after construction and consulted after the run.  That is why
this module lives in ``repro.obs`` (outside simlint's FLOW entry dirs) and
the kernel only ever calls it through an attached handle.

Occupancy = handler time / loop wall time.  The remainder is kernel
overhead: heap pops and compactions.  A healthy run sits
near 1.0; a low value with a huge event count means the queue is
churning cancelled events (see EventQueue compaction).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """Accumulates phase wall-clock and per-label handler timings."""

    def __init__(self) -> None:
        #: phase name -> accumulated wall seconds
        self.phases: dict[str, float] = {}
        #: event label -> [fired count, accumulated handler seconds]
        self.handlers: dict[str, list] = {}
        self.handler_seconds = 0.0
        self.loop_seconds = 0.0
        self._loop_start: float | None = None

    # -- coarse phases ------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    # -- kernel hooks -------------------------------------------------------
    def record_fire(self, label: str, fire) -> None:
        """Run one event handler, charging its wall time to ``label``."""
        start = time.perf_counter()
        try:
            fire()
        finally:
            elapsed = time.perf_counter() - start
            cell = self.handlers.get(label)
            if cell is None:
                cell = self.handlers[label] = [0, 0.0]
            cell[0] += 1
            cell[1] += elapsed
            self.handler_seconds += elapsed

    def loop_enter(self) -> None:
        self._loop_start = time.perf_counter()

    def loop_exit(self) -> None:
        if self._loop_start is not None:
            self.loop_seconds += time.perf_counter() - self._loop_start
            self._loop_start = None

    # -- views --------------------------------------------------------------
    def occupancy(self) -> float:
        """Fraction of event-loop wall time spent inside handlers."""
        if self.loop_seconds <= 0.0:
            return 0.0
        return min(1.0, self.handler_seconds / self.loop_seconds)

    def summary(self) -> dict:
        """JSON-able report (seconds, counts, occupancy)."""
        return {
            "phases_s": {
                name: secs for name, secs in sorted(self.phases.items())
            },
            "handlers": {
                label: {"count": cell[0], "seconds": cell[1]}
                for label, cell in sorted(self.handlers.items())
            },
            "loop_s": self.loop_seconds,
            "handler_s": self.handler_seconds,
            "occupancy": self.occupancy(),
        }
