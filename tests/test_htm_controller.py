"""Focused unit tests for the HTM controller's protocol paths.

These drive a tiny machine directly through the controller API (no
workload layer) to pin down behaviours the integration tests only
exercise statistically.
"""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.htm import Machine, MachineParams, NoDelay, TunedDelay
from repro.htm.cache import LineState
from repro.htm.controller import AbortReason


def make_machine(n_cores=2, policy=None, **params_kwargs):
    params = MachineParams(n_cores=n_cores, **params_kwargs)
    machine = Machine(
        params, (lambda i: policy) if policy else (lambda i: NoDelay())
    )
    # minimal load without a workload: build mem systems only
    from repro.htm.controller import CoreMemSystem
    from repro.rngutil import spawn_streams

    streams = spawn_streams(1, n_cores)
    machine.mems = [
        CoreMemSystem(i, machine, machine._policy_factory(i), streams[i])
        for i in range(n_cores)
    ]
    machine.directory.controllers = machine.mems
    return machine


def complete(machine, horizon=100_000.0):
    machine.sim.run(until=horizon)


class Collector:
    def __init__(self):
        self.results = []

    def __call__(self, value=None):
        self.results.append(value)


class TestAccessPaths:
    def test_read_miss_then_hit(self):
        machine = make_machine()
        mem = machine.mems[0]
        machine.poke(64, 42)
        out = Collector()
        mem.access(64, write=False, tx=False, done=out)
        complete(machine)
        assert out.results == [42]
        # second access is a hit: completes much faster
        t0 = machine.sim.now
        mem.access(64, write=False, tx=False, done=out)
        complete(machine)
        assert out.results == [42, 42]

    def test_non_tx_write_immediate(self):
        machine = make_machine()
        mem = machine.mems[0]
        out = Collector()
        mem.access(64, write=True, tx=False, value=7, done=out)
        complete(machine)
        assert machine.peek(64) == 7

    def test_cas_success_and_failure(self):
        machine = make_machine()
        mem = machine.mems[0]
        machine.poke(64, 5)
        out = Collector()
        mem.access(64, write=False, tx=False, cas=(5, 9), done=out)
        complete(machine)
        assert out.results[-1] == (True, 5)
        assert machine.peek(64) == 9
        mem.access(64, write=False, tx=False, cas=(5, 11), done=out)
        complete(machine)
        assert out.results[-1] == (False, 9)
        assert machine.peek(64) == 9

    def test_tx_write_buffered_until_commit(self):
        machine = make_machine()
        mem = machine.mems[0]
        machine.poke(64, 1)
        mem.begin_tx(lambda reason: None)
        out = Collector()
        mem.access(64, write=True, tx=True, value=99, done=out)
        complete(machine)
        assert machine.peek(64) == 1  # still buffered
        # read-own-write
        mem.access(64, write=False, tx=True, done=out)
        complete(machine)
        assert out.results[-1] == 99
        # commit: acquire + finalize
        addr = mem.next_commit_addr()
        assert addr == 64
        done = Collector()
        mem.access(addr, write=False, tx=True, acquire=True, done=done)
        complete(machine)
        assert mem.next_commit_addr() is None
        mem.finalize_commit(lambda: done("committed"))
        complete(machine)
        assert machine.peek(64) == 99
        assert "committed" in done.results

    def test_abort_discards_buffer(self):
        machine = make_machine()
        mem = machine.mems[0]
        machine.poke(64, 1)
        reasons = Collector()
        mem.begin_tx(reasons)
        out = Collector()
        mem.access(64, write=True, tx=True, value=99, done=out)
        complete(machine)
        mem.abort_tx(AbortReason.EXPLICIT)
        assert machine.peek(64) == 1
        assert reasons.results == [AbortReason.EXPLICIT]
        assert not mem.tx_active
        assert mem.cache.transactional_lines() == []

    def test_second_miss_while_one_is_outstanding_rejected(self):
        machine = make_machine()
        mem = machine.mems[0]
        out = Collector()
        mem.access(64, write=False, tx=False, done=out)
        with pytest.raises(ProtocolError):
            mem.access(128, write=False, tx=False, done=out)
        complete(machine)
        assert out.results == [0]  # the first miss still completes
        assert mem.stats.l1_misses == 1

    def test_hit_leaves_the_miss_slot_empty(self):
        machine = make_machine()
        mem = machine.mems[0]
        out = Collector()
        mem.access(64, write=False, tx=False, done=out)
        assert mem._miss is not None
        complete(machine)
        assert mem._miss is None  # the grant emptied it
        mem.access(64, write=False, tx=False, done=out)
        assert mem._miss is None  # a hit never fills it
        mem.access(128, write=False, tx=False, done=out)  # so a miss may
        complete(machine)
        assert (mem.stats.l1_hits, mem.stats.l1_misses) == (1, 2)
        assert out.results == [0, 0, 0]

    def test_tx_access_outside_tx_rejected(self):
        machine = make_machine()
        with pytest.raises(ProtocolError):
            machine.mems[0].access(64, write=False, tx=True, done=lambda v: None)

    def test_nested_begin_rejected(self):
        machine = make_machine()
        mem = machine.mems[0]
        mem.begin_tx(lambda r: None)
        with pytest.raises(ProtocolError):
            mem.begin_tx(lambda r: None)

    def test_finalize_without_ownership_rejected(self):
        machine = make_machine()
        mem = machine.mems[0]
        mem.begin_tx(lambda r: None)
        out = Collector()
        mem.access(64, write=True, tx=True, value=5, done=out)
        complete(machine)
        # line is S (lazy) — finalize must refuse
        with pytest.raises(ProtocolError):
            mem.finalize_commit(lambda: None)


class TestConflictPaths:
    def _setup_conflict(self, policy):
        """Core 0 holds a tx-read line; core 1 requests it exclusively."""
        machine = make_machine(policy=policy)
        m0, m1 = machine.mems
        machine.poke(64, 3)
        m0.begin_tx(lambda r: None)
        out = Collector()
        m0.access(64, write=False, tx=True, done=out)
        complete(machine)
        return machine, m0, m1

    def test_no_delay_kills_receiver(self):
        machine, m0, m1 = self._setup_conflict(NoDelay())
        got = Collector()
        m1.access(64, write=True, tx=False, value=9, done=got)
        complete(machine)
        assert not m0.tx_active
        assert m0.stats.abort_reasons.get("conflict_immediate") == 1
        assert machine.peek(64) == 9

    def test_grace_expires_then_receiver_dies(self):
        machine, m0, m1 = self._setup_conflict(TunedDelay(500))
        got = Collector()
        start = machine.sim.now
        m1.access(64, write=True, tx=False, value=9, done=got)
        complete(machine)
        assert not m0.tx_active
        assert m0.stats.abort_reasons.get("conflict_timeout") == 1
        # the requestor's completion waited for the grace period
        assert machine.sim.now - start >= 500

    def test_commit_during_grace_saves_receiver(self):
        machine, m0, m1 = self._setup_conflict(TunedDelay(5_000))
        got = Collector()
        m1.access(64, write=True, tx=False, value=9, done=got)
        machine.sim.run(until=machine.sim.now + 100)  # probe delayed
        assert m0.tx_active
        # read set only -> the receiver can finalize immediately
        m0.finalize_commit(lambda: got("committed"))
        complete(machine)
        assert got.results  # requestor unblocked after the commit
        assert m0.stats.tx_committed == 1
        assert m0.stats.tx_aborted == 0

    def test_static_wedge_aborts_immediately(self):
        """A buffered write to the probed (un-owned) line dooms the
        receiver instantly despite a long grace policy."""
        machine = make_machine(policy=TunedDelay(100_000))
        m0, m1 = machine.mems
        m0.begin_tx(lambda r: None)
        out = Collector()
        m0.access(64, write=True, tx=True, value=5, done=out)  # S + tx_write
        complete(machine)
        got = Collector()
        t0 = machine.sim.now
        m1.access(64, write=True, tx=False, value=9, done=got)
        complete(machine)
        assert not m0.tx_active
        assert m0.stats.abort_reasons.get("wedged", 0) == 1
        assert machine.sim.now - t0 < 1_000  # no grace burned

    def test_dynamic_wedge_on_access(self):
        """Granting grace first, then writing the probed line: the
        access self-aborts (the self-deadlock fix)."""
        machine = make_machine(policy=TunedDelay(100_000))
        m0, m1 = machine.mems
        machine.poke(64, 3)
        m0.begin_tx(lambda r: None)
        out = Collector()
        m0.access(64, write=False, tx=True, done=out)  # tx_read only
        complete(machine)
        got = Collector()
        m1.access(64, write=True, tx=False, value=9, done=got)
        machine.sim.run(until=machine.sim.now + 50)
        assert m0.tx_active  # in grace
        issued = m0.access(64, write=True, tx=True, value=7, done=out)
        assert issued is False
        assert not m0.tx_active
        assert m0.stats.abort_reasons.get("wedged", 0) == 1
        complete(machine)
        assert machine.peek(64) == 9  # requestor won

    def test_gets_probe_on_tx_read_no_conflict(self):
        """A reader probing another reader's tx line is not a conflict
        (only writes clash with reads)."""
        machine = make_machine(policy=NoDelay())
        m0, m1 = machine.mems
        machine.poke(64, 3)
        m0.begin_tx(lambda r: None)
        out = Collector()
        m0.access(64, write=False, tx=True, done=out)
        complete(machine)
        got = Collector()
        m1.access(64, write=False, tx=False, done=got)
        complete(machine)
        assert m0.tx_active  # untouched
        assert got.results == [3]

    def test_second_probe_joins_pending(self):
        machine = make_machine(n_cores=3, policy=TunedDelay(5_000))
        m0, m1, m2 = machine.mems
        machine.poke(64, 3)
        m0.begin_tx(lambda r: None)
        out = Collector()
        m0.access(64, write=False, tx=True, done=out)
        complete(machine)
        got1, got2 = Collector(), Collector()
        m1.access(64, write=True, tx=False, value=9, done=got1)
        machine.sim.run(until=machine.sim.now + 50)
        m2.access(64, write=False, tx=False, done=got2)
        machine.sim.run(until=machine.sim.now + 50)
        # only one grace decision (the second request queues at the
        # directory behind the first — pending list has one probe)
        assert m0.stats.grace_delay_stats.n == 1


class TestEvictionPaths:
    def test_capacity_abort_on_full_tx_set(self):
        # one set, two ways: third distinct line in set 0 wedges
        machine = make_machine(l1_sets=1, l1_assoc=2)
        mem = machine.mems[0]
        reasons = Collector()
        mem.begin_tx(reasons)
        out = Collector()
        line_words = machine.params.line_words
        mem.access(1 * line_words, write=False, tx=True, done=out)
        complete(machine)
        mem.access(2 * line_words, write=False, tx=True, done=out)
        complete(machine)
        issued = mem.access(3 * line_words, write=False, tx=True, done=out)
        assert issued is False
        assert reasons.results == [AbortReason.CAPACITY]
        assert mem.stats.abort_reasons.get("capacity") == 1

    def test_non_tx_victim_preferred(self):
        machine = make_machine(l1_sets=1, l1_assoc=2)
        mem = machine.mems[0]
        out = Collector()
        lw = machine.params.line_words
        mem.access(1 * lw, write=False, tx=False, done=out)  # non-tx line
        complete(machine)
        mem.begin_tx(lambda r: None)
        mem.access(2 * lw, write=False, tx=True, done=out)  # tx line
        complete(machine)
        issued = mem.access(3 * lw, write=False, tx=True, done=out)
        complete(machine)
        assert issued is True  # evicted the non-tx way, tx survived
        assert mem.tx_active
        assert mem.cache.lookup(1) is None

    def test_m_eviction_writes_back(self):
        machine = make_machine(l1_sets=1, l1_assoc=2)
        mem = machine.mems[0]
        out = Collector()
        lw = machine.params.line_words
        mem.access(1 * lw, write=True, tx=False, value=5, done=out)
        complete(machine)
        assert machine.directory.entry(1).owner == 0
        mem.access(2 * lw, write=False, tx=False, done=out)
        complete(machine)
        mem.access(3 * lw, write=False, tx=False, done=out)
        complete(machine)
        assert machine.directory.entry(1).owner is None
        assert mem.stats.writebacks == 1

    def test_grant_rechecks_room_when_ways_shrink_mid_miss(self):
        # one set, three ways: lines 1 and 2 (non-tx), then 3 (tx)
        machine = make_machine(l1_sets=1, l1_assoc=3)
        mem = machine.mems[0]
        out = Collector()
        lw = machine.params.line_words
        mem.access(1 * lw, write=False, tx=False, done=out)
        complete(machine)
        mem.access(2 * lw, write=False, tx=False, done=out)
        complete(machine)
        mem.begin_tx(lambda r: None)
        mem.access(3 * lw, write=False, tx=True, done=out)
        complete(machine)
        # the miss on line 4 evicts LRU line 1 under reserved_ways = 0
        assert mem.access(4 * lw, write=False, tx=True, done=out)
        assert mem.cache.lookup(1) is None
        # a way is reserved before the grant: two ways left, so the
        # grant must evict the LRU non-tx way (line 2) to install
        mem.cache.reserved_ways = 1
        complete(machine)
        assert mem.cache.lookup(2) is None
        assert sorted(mem.cache.resident_lines()) == [3, 4]
        assert mem.cache.transactional_lines() == [3, 4]
        assert mem.tx_active

    def test_grant_aborts_when_shrunk_ways_are_all_transactional(self):
        # one set, three ways: line 1 (non-tx), then 2 and 3 (tx)
        machine = make_machine(l1_sets=1, l1_assoc=3)
        mem = machine.mems[0]
        out = Collector()
        reasons = Collector()
        lw = machine.params.line_words
        mem.access(1 * lw, write=False, tx=False, done=out)
        complete(machine)
        mem.begin_tx(reasons)
        mem.access(2 * lw, write=False, tx=True, done=out)
        complete(machine)
        mem.access(3 * lw, write=False, tx=True, done=out)
        complete(machine)
        # the miss on line 4 evicts the non-tx line 1 under
        # reserved_ways = 0
        assert mem.access(4 * lw, write=False, tx=True, done=out)
        assert mem.cache.lookup(1) is None
        # a way is reserved before the grant: both ways left hold tx
        # lines, so making room is a capacity abort, as in access
        mem.cache.reserved_ways = 1
        complete(machine)
        assert reasons.results == [AbortReason.CAPACITY]
        assert mem.stats.abort_reasons.get("capacity") == 1
        assert not mem.tx_active
        assert sorted(mem.cache.resident_lines()) == [4]
        assert mem.cache.transactional_lines() == []


class TestNackBackstop:
    def test_ra_receiver_gets_backstop_timer(self):
        from repro.htm import RequestorAbortsDelay

        machine = make_machine(policy=RequestorAbortsDelay())
        m0, m1 = machine.mems
        machine.poke(64, 3)
        m0.begin_tx(lambda r: None)
        out = Collector()
        m0.access(64, write=False, tx=True, done=out)
        complete(machine)
        # non-tx requestor cannot be NACKed; backstop must still fire
        got = Collector()
        m1.access(64, write=True, tx=False, value=9, done=got)
        complete(machine)
        # eventually the receiver yielded (requestor-wins backstop)
        assert not m0.tx_active
        assert got.results is not None
        assert machine.peek(64) == 9
