"""Process-local metrics: counters, gauges, deterministic histograms.

The registry is the numeric half of the observability layer
(docs/OBSERVABILITY.md).  Three design rules keep it compatible with
the repository's bit-determinism contract:

* **Integer-only aggregation.**  Counters and histogram bucket counts
  are integers, so merging per-worker snapshots is associative and
  byte-exact regardless of how trials were sharded.  Gauges are
  last-write-wins and merged in a caller-specified order.
* **Fixed bucket edges.**  Histograms take their edges at creation and
  never adapt, so two runs (or two workers) always bucket identically.
* **Cheap no-op handles.**  The module-level registry defaults to
  :data:`NULL_REGISTRY`; its instruments are shared singletons whose
  methods do nothing, so instrumented hot paths cost one attribute
  lookup and a constant call when observability is off.

Per-machine registries chain to the module-level one at handle-creation
time: when a capture is active (:func:`use_registry`), every increment
lands both locally (machine stats) and in the capture.
"""

from __future__ import annotations

import bisect
import math
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.errors import InvalidParameterError

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
]


class Counter:
    """Monotonic integer count; ``inc`` forwards to a parent handle."""

    __slots__ = ("name", "_value", "_parent")

    def __init__(self, name: str, parent: "Counter | None" = None) -> None:
        self.name = name
        self._value = 0
        self._parent = parent

    def inc(self, n: int = 1) -> None:
        self._value += n
        if self._parent is not None:
            self._parent.inc(n)

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Last-write-wins value (e.g. a current queue depth)."""

    __slots__ = ("name", "_value", "_parent")

    def __init__(self, name: str, parent: "Gauge | None" = None) -> None:
        self.name = name
        self._value = 0
        self._parent = parent

    def set(self, value) -> None:
        self._value = value
        if self._parent is not None:
            self._parent.set(value)

    @property
    def value(self):
        return self._value


class Histogram:
    """Fixed-edge histogram; deterministic by construction.

    ``edges`` are the ascending bucket boundaries: an observation lands
    in bucket ``i`` when ``edges[i] <= x < edges[i+1]``; values below
    ``edges[0]`` count as underflow, values at or above ``edges[-1]``
    as overflow.  Only integer counts are stored, so snapshots merge
    exactly.
    """

    __slots__ = ("name", "edges", "counts", "underflow", "overflow", "n",
                 "_parent")

    def __init__(
        self,
        name: str,
        edges: Sequence[float],
        parent: "Histogram | None" = None,
    ) -> None:
        edges = tuple(edges)
        if len(edges) < 2:
            raise InvalidParameterError(
                f"histogram {name!r} needs >= 2 edges, got {len(edges)}"
            )
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise InvalidParameterError(
                f"histogram {name!r} edges must be strictly ascending"
            )
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) - 1)
        self.underflow = 0
        self.overflow = 0
        self.n = 0
        self._parent = parent

    def observe(self, x: float) -> None:
        if x < self.edges[0]:
            self.underflow += 1
        elif x >= self.edges[-1]:
            self.overflow += 1
        else:
            try:  # NaN fails both tests and bisects past the last bucket
                self.counts[bisect.bisect_right(self.edges, x) - 1] += 1
            except IndexError:
                raise InvalidParameterError(
                    f"histogram {self.name!r} cannot observe {x!r}"
                ) from None
        self.n += 1
        if self._parent is not None:
            self._parent.observe(x)

    def quantile(self, q: float) -> float:
        """Edge-resolution nearest-rank quantile.

        Returns the smallest bucket boundary ``b`` such that at least
        ``ceil(q * n)`` observations were strictly below ``b`` — i.e.
        the upper edge of the bucket holding the nearest-rank sample,
        a conservative (never under-reporting) latency read.  Ranks
        that land in the underflow region clamp to ``edges[0]`` and
        ranks in the overflow region clamp to ``edges[-1]``; an empty
        histogram returns NaN.

        The exact contract the latency-accounting tests pin: for any
        observation stream, the sorted-array nearest-rank value lies
        inside the bucket whose upper edge this returns (or beyond the
        clamped edge for under/overflow).
        """
        if not 0.0 < q <= 1.0:
            raise InvalidParameterError(
                f"quantile q must be in (0, 1], got {q!r}"
            )
        if self.n == 0:
            return float("nan")
        rank = max(1, math.ceil(self.n * q))
        cumulative = self.underflow
        if cumulative >= rank:
            return self.edges[0]
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                return self.edges[i + 1]
        return self.edges[-1]

    def snapshot(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "n": self.n,
        }


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "<null>"
    value = 0

    def inc(self, n: int = 1) -> None:
        return None

    def set(self, value) -> None:
        return None

    def observe(self, x: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Disabled registry: hands out the shared no-op instrument."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, edges: Sequence[float] | None = None
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def absorb(self, snap: dict) -> None:
        return None

    def reset(self) -> None:
        return None


#: Shared disabled registry (the default module-level state).
NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """A live registry of named instruments.

    ``parent`` (optional) chains every instrument to the same-named
    instrument of another registry: increments apply to both.  The HTM
    machine uses this to feed a CLI capture without giving up its own
    always-on local counters.
    """

    enabled = True

    def __init__(self, parent: "MetricsRegistry | None" = None) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._parent = parent

    # -- instruments --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        handle = self._counters.get(name)
        if handle is None:
            parent = self._parent.counter(name) if self._parent else None
            handle = self._counters[name] = Counter(name, parent)
        return handle

    def gauge(self, name: str) -> Gauge:
        handle = self._gauges.get(name)
        if handle is None:
            parent = self._parent.gauge(name) if self._parent else None
            handle = self._gauges[name] = Gauge(name, parent)
        return handle

    def histogram(
        self, name: str, edges: Sequence[float] | None = None
    ) -> Histogram:
        handle = self._histograms.get(name)
        if handle is None:
            if edges is None:
                raise InvalidParameterError(
                    f"histogram {name!r} does not exist yet; pass its edges"
                )
            parent = (
                self._parent.histogram(name, edges) if self._parent else None
            )
            handle = self._histograms[name] = Histogram(name, edges, parent)
        elif edges is not None and tuple(edges) != handle.edges:
            raise InvalidParameterError(
                f"histogram {name!r} already exists with different edges"
            )
        return handle

    # -- views --------------------------------------------------------------
    def counter_values(self, prefix: str = "") -> dict[str, int]:
        """``{name: value}`` for counters whose name starts with ``prefix``
        (sorted by name, so iteration order is deterministic)."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict:
        """JSON-able, sorted, integer-exact state (the merge unit)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def absorb(self, snap: dict) -> None:
        """Fold one snapshot into this registry (counters add, gauges
        last-write-wins, histogram counts add).  Callers absorb worker
        snapshots **in submission order** so gauge merges — the only
        order-sensitive part — are deterministic."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, hist in snap.get("histograms", {}).items():
            handle = self.histogram(name, hist["edges"])
            for i, count in enumerate(hist["counts"]):
                handle.counts[i] += count
            handle.underflow += hist["underflow"]
            handle.overflow += hist["overflow"]
            handle.n += hist["n"]

    def reset(self) -> None:
        """Zero every instrument **in place**: handles bound before the
        reset keep counting into the same objects afterwards (the HTM
        warmup reset depends on this)."""
        for counter in self._counters.values():
            counter._value = 0
        for gauge in self._gauges.values():
            gauge._value = 0
        for hist in self._histograms.values():
            hist.counts = [0] * len(hist.counts)
            hist.underflow = 0
            hist.overflow = 0
            hist.n = 0


def merge_snapshots(snaps: Sequence[dict]) -> dict:
    """Merge snapshots **in the given order** into one snapshot.

    Counters and histogram counts are integer sums (order-free); gauges
    are last-write-wins in ``snaps`` order.  The CLI merges per-worker
    snapshots in submission order, which makes ``--metrics-out`` output
    byte-identical at any ``--jobs`` (docs/OBSERVABILITY.md).
    """
    acc = MetricsRegistry()
    for snap in snaps:
        acc.absorb(snap)
    return acc.snapshot()


# -- module-level active registry -------------------------------------------
_active: MetricsRegistry | NullRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry | NullRegistry:
    """The process's active registry (the null registry when disabled)."""
    return _active


def enable_metrics(
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Install (and return) a live module-level registry."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable_metrics() -> None:
    global _active
    _active = NULL_REGISTRY


@contextmanager
def use_registry(
    registry: MetricsRegistry | NullRegistry,
) -> Iterator[MetricsRegistry | NullRegistry]:
    """Scoped :func:`enable_metrics`: restores the previous registry."""
    global _active
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous
