"""Tests for the MSI directory controller (with a scripted probe fabric)."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.htm.directory import Directory
from repro.htm.params import MachineParams
from repro.sim.engine import Simulator


class Fabric:
    """Scripted probe endpoints: ack immediately (optionally delayed)."""

    def __init__(self, sim: Simulator, n_cores: int):
        self.sim = sim
        self.probes: list[tuple[int, int, bool, int]] = []
        self.delay_acks: dict[int, float] = {}  # target -> delay
        self.controllers = [_Port(self, core) for core in range(n_cores)]

    def probe(self, target, line, exclusive, requestor, ack):
        self.probes.append((target, line, exclusive, requestor))
        self.sim.after(self.delay_acks.get(target, 1.0), ack)


class _Port:
    """One core's controller as the directory sees it."""

    def __init__(self, fabric: Fabric, core: int):
        self.fabric = fabric
        self.core = core

    def handle_probe(self, line, exclusive, requestor, ack):
        self.fabric.probe(self.core, line, exclusive, requestor, ack)


@pytest.fixture
def setup():
    sim = Simulator()
    params = MachineParams(n_cores=4)
    fabric = Fabric(sim, params.n_cores)
    directory = Directory(sim, params, fabric.controllers)
    return sim, directory, fabric


def grant_collector():
    grants = []

    def cb_factory(tag):
        return lambda first_touch, latency: grants.append(
            (tag, first_touch, latency)
        )

    return grants, cb_factory


class TestBasicRequests:
    def test_gets_unowned(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, False, cb("a"))
        sim.run()
        assert len(grants) == 1
        assert grants[0][1] is True  # first touch
        assert directory.entry(7).sharers == {0}
        assert fabric.probes == []

    def test_second_touch_cheaper(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, False, cb("a"))
        sim.run()
        directory.request(1, 7, False, cb("b"))
        sim.run()
        assert grants[0][2] > grants[1][2]  # first fill paid DRAM
        assert directory.entry(7).sharers == {0, 1}

    def test_getx_invalidates_sharers(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        for core in (0, 1, 2):
            directory.request(core, 7, False, cb(core))
        sim.run()
        directory.request(3, 7, True, cb("x"))
        sim.run()
        probed = {t for t, line, excl, r in fabric.probes}
        assert probed == {0, 1, 2}
        entry = directory.entry(7)
        assert entry.owner == 3
        assert entry.sharers == set()

    def test_upgrade_skips_self(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, False, cb("s"))
        directory.request(1, 7, False, cb("s2"))
        sim.run()
        directory.request(0, 7, True, cb("up"))
        sim.run()
        probed = {t for t, *_ in fabric.probes}
        assert probed == {1}
        assert directory.entry(7).owner == 0

    def test_gets_downgrades_owner(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, True, cb("x"))
        sim.run()
        directory.request(1, 7, False, cb("s"))
        sim.run()
        entry = directory.entry(7)
        assert entry.owner is None
        assert entry.sharers == {0, 1}

    def test_owner_gets_rejected(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, True, cb("x"))
        sim.run()
        directory.request(0, 7, False, cb("bad"))
        with pytest.raises(ProtocolError):
            sim.run()

    def test_owner_getx_rejected(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, True, cb("x"))
        sim.run()
        directory.request(0, 7, True, cb("bad"))
        with pytest.raises(ProtocolError):
            sim.run()


class TestSerialization:
    def test_fifo_per_line(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, True, cb(0))
        directory.request(1, 7, True, cb(1))
        directory.request(2, 7, True, cb(2))
        sim.run()
        assert [g[0] for g in grants] == [0, 1, 2]
        assert directory.entry(7).owner == 2

    def test_delayed_ack_blocks_line(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, True, cb("first"))
        sim.run()
        fabric.delay_acks[0] = 500.0  # core 0 stalls its probe answer
        directory.request(1, 7, True, cb("second"))
        sim.run(until=100.0)
        assert len(grants) == 1  # second still waiting on the probe
        sim.run()
        assert len(grants) == 2

    def test_independent_lines_parallel(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        fabric.delay_acks[0] = 500.0
        directory.request(0, 7, True, cb("blockee"))
        sim.run()
        directory.request(1, 7, True, cb("blocked"))  # probes core 0
        directory.request(1, 9, False, cb("free")) if False else None
        directory.request(2, 9, False, cb("free"))
        sim.run(until=100.0)
        tags = [g[0] for g in grants]
        assert "free" in tags
        assert "blocked" not in tags


class TestEvictionsAndInvariants:
    def test_writeback_clears_owner(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, True, cb("x"))
        sim.run()
        directory.writeback(0, 7)
        assert directory.entry(7).owner is None

    def test_writeback_wrong_owner_raises(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, True, cb("x"))
        sim.run()
        with pytest.raises(ProtocolError):
            directory.writeback(1, 7)

    def test_drop_sharer(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, False, cb("s"))
        sim.run()
        directory.drop_sharer(0, 7)
        assert directory.entry(7).sharers == set()

    def test_counters(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, False, cb("a"))
        directory.request(1, 7, True, cb("b"))
        sim.run()
        assert directory.requests == 2
        assert directory.grants == 2
        assert directory.probes_sent == 1

    def test_check_invariants_passes_consistent(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, True, cb("x"))
        sim.run()
        directory.check_invariants({0: {7}, 1: set()})

    def test_check_invariants_rejects_two_holders(self, setup):
        sim, directory, fabric = setup
        grants, cb = grant_collector()
        directory.request(0, 7, True, cb("x"))
        sim.run()
        with pytest.raises(ProtocolError):
            directory.check_invariants({0: {7}, 1: {7}})

    def test_check_invariants_rejects_untracked_resident(self, setup):
        sim, directory, fabric = setup
        directory.entry(3)  # untouched line
        with pytest.raises(ProtocolError):
            directory.check_invariants({0: {3}})
