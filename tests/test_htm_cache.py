"""Tests for the L1 cache model."""

from __future__ import annotations

import random

import pytest

from repro.errors import ProtocolError
from repro.htm.cache import CacheLine, L1Cache, LineState
from repro.htm.params import MachineParams


@pytest.fixture
def cache() -> L1Cache:
    return L1Cache(MachineParams(n_cores=2, l1_sets=4, l1_assoc=2))


S, M = LineState.SHARED, LineState.MODIFIED


class TestFillLookup:
    def test_miss_then_hit(self, cache):
        assert cache.lookup(5) is None
        cache.install(5, S, False, False)
        entry = cache.lookup(5)
        assert entry is not None
        assert entry.state is S

    def test_upgrade_in_place(self, cache):
        cache.install(5, S, False, False)
        cache.install(5, M, False, False)
        assert cache.lookup(5).state is M
        assert len(cache) == 1

    def test_hit_needs_m_for_exclusive(self, cache):
        cache.install(5, S, False, False)
        assert cache.hit(5, False, False, False) is cache.lookup(5)
        assert cache.hit(5, True, False, False) is None
        cache.install(5, M, False, False)
        assert cache.hit(5, True, False, False) is cache.lookup(5)

    def test_failed_hit_touches_nothing(self, cache):
        cache.install(5, S, False, False)
        lru = cache.lookup(5).lru
        assert cache.hit(5, True, True, True) is None  # S, needs M
        assert cache.hit(9, False, True, False) is None  # absent
        entry = cache.lookup(5)
        assert entry.lru == lru
        assert not entry.transactional
        assert cache.transactional_lines() == []
        assert cache.lookup(9) is None

    def test_hit_and_install_make_the_line_mru(self, cache):
        cache.install(0, S, False, False)
        cache.install(4, S, False, False)
        assert cache.lookup(4).lru > cache.lookup(0).lru
        cache.hit(0, False, False, False)
        assert cache.lookup(0).lru > cache.lookup(4).lru
        cache.install(4, M, False, False)  # an upgrade touches too
        assert cache.lookup(4).lru > cache.lookup(0).lru

    def test_set_isolation(self, cache):
        # lines 0 and 4 share set 0 (4 sets); 1 goes to set 1
        cache.install(0, S, False, False)
        cache.install(4, S, False, False)
        cache.install(1, S, False, False)
        assert len(cache) == 3

    def test_fill_full_set_raises(self, cache):
        cache.install(0, S, False, False)
        cache.install(4, S, False, False)
        with pytest.raises(ProtocolError):
            cache.install(8, S, False, False)  # set 0 full, not evicted
        assert cache.lookup(8) is None


class TestVictimSelection:
    def test_no_victim_when_free(self, cache):
        cache.install(0, S, False, False)
        assert cache.victim_for(4, protect_tx=False) is None

    def test_no_victim_when_resident(self, cache):
        cache.install(0, S, False, False)
        cache.install(4, S, False, False)
        assert cache.victim_for(0, protect_tx=False) is None

    def test_lru_victim(self, cache):
        cache.install(0, S, False, False)
        cache.install(4, S, False, False)
        cache.hit(0, False, False, False)  # 0 now MRU
        victim = cache.victim_for(8, protect_tx=False)
        assert victim.line == 4

    def test_protect_tx_prefers_a_non_transactional_way(self, cache):
        cache.install(0, S, True, False)  # LRU, transactional
        cache.install(4, S, False, False)
        assert cache.victim_for(8, protect_tx=False).line == 0
        assert cache.victim_for(8, protect_tx=True).line == 4

    def test_protect_tx_falls_back_to_lru_when_every_way_is_tx(self, cache):
        cache.install(0, S, True, False)
        cache.install(4, M, True, True)
        cache.hit(0, False, True, False)  # 0 now MRU
        assert cache.victim_for(8, protect_tx=True).line == 4

    def test_reserved_ways_shrink_the_set(self, cache):
        cache.install(0, S, False, False)
        assert cache.victim_for(4, protect_tx=False) is None
        cache.reserved_ways = 1  # one way left
        assert cache.victim_for(4, protect_tx=False).line == 0
        cache.reserved_ways = 5  # never below one way
        assert cache.victim_for(4, protect_tx=False).line == 0
        assert cache.victim_for(1, protect_tx=False) is None  # empty set
        cache.reserved_ways = 0
        assert cache.victim_for(4, protect_tx=False) is None

    def test_eviction(self, cache):
        cache.install(0, M, False, False)
        entry = cache.evict(0)
        assert entry.state is M
        assert cache.lookup(0) is None

    def test_evict_missing_raises(self, cache):
        with pytest.raises(ProtocolError):
            cache.evict(3)


class TestProbeActions:
    def test_downgrade(self, cache):
        cache.install(2, M, False, False)
        cache.downgrade(cache.lookup(2))
        assert cache.lookup(2).state is S

    def test_downgrade_requires_m(self, cache):
        cache.install(2, S, False, False)
        with pytest.raises(ProtocolError):
            cache.downgrade(cache.lookup(2))

    def test_invalidate(self, cache):
        cache.install(2, S, False, False)
        entry = cache.lookup(2)
        cache.invalidate(entry)
        assert cache.lookup(2) is None
        with pytest.raises(ProtocolError):
            cache.invalidate(entry)  # no longer resident


class TestTransactionalBits:
    def test_mark_read(self, cache):
        cache.install(3, S, False, False)
        cache.hit(3, False, True, False)
        assert cache.lookup(3).tx_read
        assert not cache.lookup(3).tx_write

    def test_mark_write_on_shared_lazy(self, cache):
        """Lazy validation: tx-write bit on an S line is legal."""
        cache.hit(3, False, True, True)  # absent: marks nothing
        cache.install(3, S, False, False)
        cache.hit(3, False, True, True)
        assert cache.lookup(3).tx_write
        assert cache.lookup(3).state is S

    def test_install_marks(self, cache):
        cache.install(3, S, True, False)
        cache.install(1, M, True, True)
        assert cache.lookup(3).tx_read and not cache.lookup(3).tx_write
        assert cache.lookup(1).tx_write and not cache.lookup(1).tx_read
        assert cache.transactional_lines() == [3, 1]

    def test_clear_tx_bits(self, cache):
        cache.install(1, S, False, False)
        cache.install(2, M, False, False)
        cache.hit(1, False, True, False)
        cache.hit(2, False, True, True)
        cleared = cache.clear_tx_bits()
        assert sorted(cleared) == [1, 2]
        assert cache.lookup(1) is not None  # lines stay resident
        assert not cache.lookup(1).tx_read

    def test_invalidate_tx_lines(self, cache):
        cache.install(1, S, False, False)
        cache.install(2, M, False, False)
        cache.install(3, S, False, False)
        cache.hit(1, False, True, False)
        cache.hit(2, False, True, True)
        dropped = cache.invalidate_tx_lines()
        assert sorted(dropped) == [1, 2]
        assert cache.lookup(3) is not None
        assert cache.lookup(1) is None

    def test_transactional_lines_listing(self, cache):
        cache.install(1, S, False, False)
        cache.hit(1, False, True, False)
        assert cache.transactional_lines() == [1]

    def test_resident_lines(self, cache):
        cache.install(1, S, False, False)
        cache.install(2, S, False, False)
        assert sorted(cache.resident_lines()) == [1, 2]

    def test_tx_index_matches_a_full_scan(self, cache):
        """Random installs, evictions, probes, tx marks, commits and
        aborts: the tx-line index always names exactly the resident
        lines that carry a tx bit, and commit/abort act on exactly
        those."""
        rng = random.Random(7)

        def scan() -> list[int]:
            return sorted(
                ln for ln in cache.resident_lines()
                if cache.lookup(ln).transactional
            )

        for _ in range(3000):
            line = rng.randrange(16)
            op = rng.random()
            if cache.lookup(line) is None:
                victim = cache.victim_for(line, protect_tx=rng.random() < 0.5)
                if victim is not None:
                    cache.evict(victim.line)
                cache.install(
                    line,
                    rng.choice(list(LineState)),
                    rng.random() < 0.3,
                    rng.random() < 0.5,
                )
            elif op < 0.5:
                cache.hit(line, False, True, rng.random() < 0.5)
            elif op < 0.6:
                cache.invalidate(cache.lookup(line))
            elif op < 0.65:
                before = scan()
                assert sorted(cache.clear_tx_bits()) == before
                assert all(ln in cache.resident_lines() for ln in before)
            elif op < 0.7:
                before = scan()
                assert sorted(cache.invalidate_tx_lines()) == before
                assert not set(before) & set(cache.resident_lines())
            assert sorted(cache.transactional_lines()) == scan()
