"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    disable_metrics,
    enable_metrics,
    get_registry,
    merge_snapshots,
    use_registry,
)


class TestInstruments:
    def test_counter_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_parent_chaining(self):
        parent = Counter("x")
        child = Counter("x", parent)
        child.inc(3)
        assert child.value == 3
        assert parent.value == 3
        parent.inc()  # parent-only increments do not flow down
        assert child.value == 3

    def test_gauge_last_write_wins(self):
        parent = Gauge("depth")
        g = Gauge("depth", parent)
        g.set(7)
        g.set(2)
        assert g.value == 2
        assert parent.value == 2

    def test_histogram_bucketing(self):
        h = Histogram("lat", (0.0, 1.0, 2.0, 4.0))
        for x in (-0.5, 0.0, 0.5, 1.0, 3.9, 4.0, 100.0):
            h.observe(x)
        assert h.underflow == 1  # -0.5
        assert h.counts == [2, 1, 1]  # [0,1): 0.0, 0.5; [1,2): 1.0; [2,4): 3.9
        assert h.overflow == 2  # 4.0, 100.0 (right edge is exclusive)
        assert h.n == 7

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(InvalidParameterError):
            Histogram("h", (1.0,))
        with pytest.raises(InvalidParameterError):
            Histogram("h", (1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            Histogram("h", (2.0, 1.0))

    def test_histogram_rejects_nan_before_counting_it(self):
        parent = Histogram("lat", (1.0, 2.0, 4.0))
        h = Histogram("lat", (1.0, 2.0, 4.0), parent)
        h.observe(1.5)
        with pytest.raises(InvalidParameterError, match="nan"):
            h.observe(float("nan"))
        for hist in (h, parent):
            assert hist.n == 1
            assert (hist.underflow, hist.counts, hist.overflow) == (0, [1, 0], 0)
            assert hist.quantile(1.0) == 2.0

    def test_histogram_parent_chaining(self):
        parent = Histogram("h", (0.0, 1.0))
        child = Histogram("h", (0.0, 1.0), parent)
        child.observe(0.5)
        assert parent.n == child.n == 1


class TestRegistry:
    def test_handles_are_cached(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        h = reg.histogram("h", (0.0, 1.0))
        assert reg.histogram("h") is h

    def test_histogram_requires_edges_on_create(self):
        reg = MetricsRegistry()
        with pytest.raises(InvalidParameterError, match="pass its edges"):
            reg.histogram("missing")

    def test_histogram_edge_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (0.0, 1.0))
        with pytest.raises(InvalidParameterError, match="different edges"):
            reg.histogram("h", (0.0, 2.0))

    def test_parent_chaining_via_registry(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("ops").inc(5)
        assert parent.counter("ops").value == 5

    def test_counter_values_prefix_sorted(self):
        reg = MetricsRegistry()
        reg.counter("fault_b").inc(2)
        reg.counter("fault_a").inc(1)
        reg.counter("other").inc(9)
        assert reg.counter_values("fault_") == {"fault_a": 1, "fault_b": 2}
        assert list(reg.counter_values()) == ["fault_a", "fault_b", "other"]

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(3)
        reg.histogram("h", (0.0, 1.0)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 3}
        assert snap["histograms"]["h"]["n"] == 1

    def test_reset_zeroes_in_place(self):
        reg = MetricsRegistry()
        handle = reg.counter("c")
        hist = reg.histogram("h", (0.0, 1.0))
        handle.inc(5)
        hist.observe(0.5)
        reg.reset()
        assert handle.value == 0
        assert hist.n == 0 and hist.counts == [0]
        handle.inc()  # pre-reset handles keep counting into the registry
        assert reg.snapshot()["counters"]["c"] == 1


class TestMerge:
    def snap(self, **counters):
        reg = MetricsRegistry()
        for name, v in counters.items():
            reg.counter(name).inc(v)
        return reg.snapshot()

    def test_counters_merge_order_free(self):
        a, b = self.snap(x=1, y=2), self.snap(x=10)
        merged = merge_snapshots([a, b])
        assert merged["counters"] == {"x": 11, "y": 2}
        assert merge_snapshots([b, a])["counters"] == merged["counters"]

    def test_gauges_merge_last_write_wins_in_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").set(1)
        b.gauge("depth").set(9)
        assert (
            merge_snapshots([a.snapshot(), b.snapshot()])["gauges"]["depth"]
            == 9
        )
        assert (
            merge_snapshots([b.snapshot(), a.snapshot()])["gauges"]["depth"]
            == 1
        )

    def test_histograms_merge_exactly(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, xs in ((a, (0.1, 5.0)), (b, (-1.0, 0.9))):
            h = reg.histogram("h", (0.0, 1.0, 2.0))
            for x in xs:
                h.observe(x)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])["histograms"]["h"]
        assert merged == {
            "edges": [0.0, 1.0, 2.0],
            "counts": [2, 0],
            "underflow": 1,
            "overflow": 1,
            "n": 4,
        }

    def test_merge_is_associative_for_integers(self):
        snaps = [self.snap(x=i) for i in (1, 2, 3)]
        left = merge_snapshots([merge_snapshots(snaps[:2]), snaps[2]])
        right = merge_snapshots([snaps[0], merge_snapshots(snaps[1:])])
        assert left == right == merge_snapshots(snaps)


class TestModuleState:
    def test_default_is_null_registry(self):
        assert get_registry() is NULL_REGISTRY
        assert not get_registry().enabled

    def test_null_registry_is_inert(self):
        NULL_REGISTRY.counter("c").inc()
        NULL_REGISTRY.gauge("g").set(1)
        NULL_REGISTRY.histogram("h").observe(0.5)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_enable_disable_roundtrip(self):
        reg = enable_metrics()
        try:
            assert get_registry() is reg
            assert reg.enabled
        finally:
            disable_metrics()
        assert get_registry() is NULL_REGISTRY

    def test_use_registry_restores_previous(self):
        inner = MetricsRegistry()
        with use_registry(inner):
            assert get_registry() is inner
            get_registry().counter("seen").inc()
        assert get_registry() is NULL_REGISTRY
        assert inner.snapshot()["counters"] == {"seen": 1}
