"""Unit tests for the trace bus and its serializers (repro.obs.tracebus)."""

from __future__ import annotations

import json

from repro.obs import capture, obs_active
from repro.obs.tracebus import (
    EVENT_KINDS,
    JsonlSink,
    ListSink,
    NULL_BUS,
    ObsEvent,
    TraceBus,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    get_bus,
    jsonl_line,
    replay,
    use_bus,
    write_jsonl,
)


class TestEvent:
    def test_kind_vocabulary(self):
        assert "commit" in EVENT_KINDS
        assert "cache_miss" in EVENT_KINDS
        assert "worker_crashed" in EVENT_KINDS
        assert "degraded_to_serial" in EVENT_KINDS
        assert "decision_served" in EVENT_KINDS
        assert "regime_switch" in EVENT_KINDS
        assert "ablation_run" in EVENT_KINDS
        assert len(EVENT_KINDS) == 17

    def test_format_is_one_line(self):
        event = ObsEvent(12.5, "abort", 3, {"reason": "conflict_timeout"})
        text = event.format()
        assert "\n" not in text
        assert "abort" in text and "reason=conflict_timeout" in text

    def test_jsonl_line_is_canonical(self):
        event = ObsEvent(1.0, "conflict", 2, {"k": 2, "delay": 4.0})
        line = jsonl_line(event)
        assert line == (
            '{"core":2,"data":{"delay":4.0,"k":2},"kind":"conflict","ts":1.0}'
        )
        # canonical bytes: equal streams <=> equal lines
        assert jsonl_line(ObsEvent(1.0, "conflict", 2, {"delay": 4.0, "k": 2})) == line

    def test_write_jsonl_roundtrip(self, tmp_path):
        events = [
            ObsEvent(1.0, "txn_begin", 0),
            ObsEvent(2.0, "commit", 0, {"duration": 1.0}),
        ]
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(events, path) == 2
        lines = path.read_text().splitlines()
        assert [json.loads(l)["kind"] for l in lines] == ["txn_begin", "commit"]


class TestChromeTrace:
    def test_commit_with_duration_is_complete_slice(self):
        doc = chrome_trace([ObsEvent(10.0, "commit", 1, {"duration": 4.0})])
        (slice_,) = doc["traceEvents"]
        assert slice_["ph"] == "X"
        assert slice_["ts"] == 6.0 and slice_["dur"] == 4.0
        assert slice_["tid"] == 1

    def test_other_events_are_instants(self):
        doc = chrome_trace([ObsEvent(3.0, "abort", 2, {"reason": "x"})])
        (inst,) = doc["traceEvents"]
        assert inst["ph"] == "i" and inst["ts"] == 3.0
        assert inst["args"] == {"reason": "x"}


class TestBus:
    def test_emit_fans_out_and_counts(self):
        bus = TraceBus()
        a, b = ListSink(), ListSink()
        bus.subscribe(a)
        bus.subscribe(b)
        bus.subscribe(a)  # double-subscribe is a no-op
        event = bus.emit(1.0, "txn_begin", 0)
        assert bus.emitted == 1
        assert a.events == b.events == [event]
        bus.unsubscribe(b)
        bus.emit(2.0, "commit", 0)
        assert len(a.events) == 2 and len(b.events) == 1

    def test_jsonl_sink_dump(self, tmp_path):
        bus = TraceBus()
        sink = JsonlSink()
        bus.subscribe(sink)
        bus.emit(1.0, "cache_hit", -1, exp_id="fig2a")
        path = tmp_path / "out.jsonl"
        assert sink.dump(path) == 1
        assert json.loads(path.read_text())["data"] == {"exp_id": "fig2a"}

    def test_replay_preserves_order(self):
        events = [ObsEvent(float(i), "txn_begin", i) for i in range(3)]
        bus = TraceBus()
        sink = ListSink()
        bus.subscribe(sink)
        replay(events, bus)
        assert sink.events == events
        assert bus.emitted == 3

    def test_null_bus_is_inert(self):
        sink = ListSink()
        NULL_BUS.subscribe(sink)
        assert NULL_BUS.emit(1.0, "commit", 0) is None
        NULL_BUS.publish(ObsEvent(1.0, "commit", 0))
        assert sink.events == []
        assert NULL_BUS.emitted == 0


class TestModuleState:
    def test_default_is_null_bus(self):
        assert get_bus() is NULL_BUS
        assert not obs_active()

    def test_enable_disable_roundtrip(self):
        bus = enable_tracing()
        try:
            assert get_bus() is bus and bus.enabled
            assert obs_active()
        finally:
            disable_tracing()
        assert get_bus() is NULL_BUS

    def test_use_bus_restores_previous(self):
        inner = TraceBus()
        with use_bus(inner):
            assert get_bus() is inner
        assert get_bus() is NULL_BUS


class TestCapture:
    def test_capture_collects_both_halves(self):
        with capture() as cap:
            assert obs_active()
            from repro.obs import get_registry

            get_registry().counter("seen").inc(2)
            get_bus().emit(1.0, "commit", 0, duration=0.5)
        assert not obs_active()
        # the capture stays valid after the block
        assert cap.snapshot()["counters"] == {"seen": 2}
        assert [e.kind for e in cap.events] == ["commit"]

    def test_nested_captures_are_independent(self):
        with capture() as outer:
            get_bus().emit(1.0, "txn_begin", 0)
            with capture() as inner:
                get_bus().emit(2.0, "abort", 0, reason="x")
            get_bus().emit(3.0, "commit", 0)
        assert [e.kind for e in inner.events] == ["abort"]
        assert [e.kind for e in outer.events] == ["txn_begin", "commit"]
