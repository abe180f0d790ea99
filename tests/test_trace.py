"""Tests for the event tracer and its HTM integration."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.htm import Machine, MachineParams, RandDelay
from repro.obs import TraceBus, use_bus
from repro.sim.trace import TraceEvent, Tracer
from repro.workloads import CounterWorkload


def _traced_machine(n_cores: int, tracer: Tracer) -> Machine:
    """A machine whose own bus feeds ``tracer`` (a per-machine timeline)."""
    machine = Machine(MachineParams(n_cores=n_cores), lambda i: RandDelay())
    machine.bus = TraceBus()
    machine.bus.subscribe(tracer)
    return machine


class TestTracer:
    def test_emit_and_query(self):
        tracer = Tracer()
        tracer.emit(10.0, "abort", 1, reason="capacity")
        tracer.emit(20.0, "commit", 2, duration=50)
        assert len(tracer) == 2
        assert tracer.counts() == {"abort": 1, "commit": 1}
        assert [e.kind for e in tracer.events(kinds={"abort"})] == ["abort"]

    def test_filter_by_core_and_time(self):
        tracer = Tracer()
        for t in range(10):
            tracer.emit(float(t), "tick", t % 2)
        assert len(tracer.events(core=0)) == 5
        assert len(tracer.events(since=5.0)) == 5
        assert len(tracer.events(core=1, since=5.0)) == 3

    def test_ring_buffer_bound(self):
        tracer = Tracer(capacity=5)
        for t in range(20):
            tracer.emit(float(t), "tick", 0)
        assert len(tracer) == 5
        assert tracer.emitted == 20
        assert tracer.events()[0].time == 15.0

    def test_kind_filter_at_emit(self):
        tracer = Tracer(kinds={"abort"})
        tracer.emit(1.0, "abort", 0)
        tracer.emit(2.0, "commit", 0)
        assert len(tracer) == 1
        assert tracer.dropped_by_filter == 1

    def test_render(self):
        tracer = Tracer()
        tracer.emit(1.5, "conflict", 3, line=7, k=2)
        text = tracer.render()
        assert "core3" in text
        assert "conflict" in text
        assert "line=7" in text

    def test_render_empty(self):
        assert "(no matching events)" in Tracer().render()

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(1.0, "x", 0)
        tracer.clear()
        assert len(tracer) == 0

    def test_invalid_capacity(self):
        with pytest.raises(InvalidParameterError):
            Tracer(capacity=0)

    def test_event_format(self):
        event = TraceEvent(12.0, "abort", 4, {"reason": "cycle"})
        assert "reason=cycle" in event.format()


class TestMachineIntegration:
    def test_timeline_recorded(self):
        tracer = Tracer()
        machine = _traced_machine(4, tracer)
        workload = CounterWorkload()
        machine.load(workload, seed=1)
        stats = machine.run(60_000.0)
        workload.verify(machine)
        counts = tracer.counts()
        assert counts.get("commit", 0) > 0
        assert counts.get("conflict", 0) > 0
        assert counts.get("abort", 0) > 0

    def test_commit_count_matches_stats(self):
        tracer = Tracer(capacity=1_000_000)
        bus = TraceBus()
        bus.subscribe(tracer)
        with use_bus(bus):  # the bus a machine picks up at construction
            machine = Machine(MachineParams(n_cores=2), lambda i: RandDelay())
        workload = CounterWorkload(ops_limit=100)
        machine.load(workload, seed=1)
        stats = machine.run(200_000.0)
        assert tracer.counts().get("commit", 0) == stats.tx_committed

    def test_conflict_events_carry_decision(self):
        tracer = Tracer(kinds={"conflict"})
        machine = _traced_machine(4, tracer)
        workload = CounterWorkload()
        machine.load(workload, seed=2)
        machine.run(60_000.0)
        for event in tracer.events():
            assert event.detail["k"] >= 2
            assert event.detail["delay"] >= 0
            assert event.detail["mode"] in (
                "requestor_wins",
                "requestor_aborts",
            )

    def test_default_is_null_tracer(self):
        machine = Machine(MachineParams(n_cores=2), lambda i: RandDelay())
        assert not machine.tracing and not machine.bus.enabled
