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


class TestFillLookup:
    def test_miss_then_hit(self, cache):
        assert cache.lookup(5) is None
        cache.fill(5, LineState.SHARED)
        entry = cache.lookup(5)
        assert entry is not None
        assert entry.state is LineState.SHARED

    def test_upgrade_in_place(self, cache):
        cache.fill(5, LineState.SHARED)
        cache.fill(5, LineState.MODIFIED)
        assert cache.lookup(5).state is LineState.MODIFIED
        assert len(cache) == 1

    def test_has_state(self, cache):
        cache.fill(5, LineState.SHARED)
        assert cache.has_state(5, exclusive=False)
        assert not cache.has_state(5, exclusive=True)
        cache.fill(5, LineState.MODIFIED)
        assert cache.has_state(5, exclusive=True)

    def test_set_isolation(self, cache):
        # lines 0 and 4 share set 0 (4 sets); 1 goes to set 1
        cache.fill(0, LineState.SHARED)
        cache.fill(4, LineState.SHARED)
        cache.fill(1, LineState.SHARED)
        assert len(cache) == 3

    def test_fill_full_set_raises(self, cache):
        cache.fill(0, LineState.SHARED)
        cache.fill(4, LineState.SHARED)
        with pytest.raises(ProtocolError):
            cache.fill(8, LineState.SHARED)  # set 0 full, not evicted


class TestVictimSelection:
    def test_no_victim_when_free(self, cache):
        cache.fill(0, LineState.SHARED)
        assert cache.victim_for(4) is None

    def test_no_victim_when_resident(self, cache):
        cache.fill(0, LineState.SHARED)
        cache.fill(4, LineState.SHARED)
        assert cache.victim_for(0) is None

    def test_lru_victim(self, cache):
        cache.fill(0, LineState.SHARED)
        cache.fill(4, LineState.SHARED)
        cache.touch(cache.lookup(0))  # 0 now MRU
        victim = cache.victim_for(8)
        assert victim.line == 4

    def test_eviction(self, cache):
        cache.fill(0, LineState.MODIFIED)
        entry = cache.evict(0)
        assert entry.state is LineState.MODIFIED
        assert cache.lookup(0) is None

    def test_evict_missing_raises(self, cache):
        with pytest.raises(ProtocolError):
            cache.evict(3)


class TestProbeActions:
    def test_downgrade(self, cache):
        cache.fill(2, LineState.MODIFIED)
        cache.downgrade(2)
        assert cache.lookup(2).state is LineState.SHARED

    def test_downgrade_requires_m(self, cache):
        cache.fill(2, LineState.SHARED)
        with pytest.raises(ProtocolError):
            cache.downgrade(2)

    def test_invalidate(self, cache):
        cache.fill(2, LineState.SHARED)
        cache.invalidate(2)
        assert cache.lookup(2) is None


class TestTransactionalBits:
    def test_mark_read(self, cache):
        cache.fill(3, LineState.SHARED)
        cache.mark_tx(3, write=False)
        assert cache.lookup(3).tx_read
        assert not cache.lookup(3).tx_write

    def test_mark_write_on_shared_lazy(self, cache):
        """Lazy validation: tx-write bit on an S line is legal."""
        cache.fill(3, LineState.SHARED)
        cache.mark_tx(3, write=True)
        assert cache.lookup(3).tx_write

    def test_mark_missing_raises(self, cache):
        with pytest.raises(ProtocolError):
            cache.mark_tx(3, write=False)

    def test_clear_tx_bits(self, cache):
        cache.fill(1, LineState.SHARED)
        cache.fill(2, LineState.MODIFIED)
        cache.mark_tx(1, write=False)
        cache.mark_tx(2, write=True)
        cleared = cache.clear_tx_bits()
        assert sorted(cleared) == [1, 2]
        assert cache.lookup(1) is not None  # lines stay resident
        assert not cache.lookup(1).tx_read

    def test_invalidate_tx_lines(self, cache):
        cache.fill(1, LineState.SHARED)
        cache.fill(2, LineState.MODIFIED)
        cache.fill(3, LineState.SHARED)
        cache.mark_tx(1, write=False)
        cache.mark_tx(2, write=True)
        dropped = cache.invalidate_tx_lines()
        assert sorted(dropped) == [1, 2]
        assert cache.lookup(3) is not None
        assert cache.lookup(1) is None

    def test_transactional_lines_listing(self, cache):
        cache.fill(1, LineState.SHARED)
        cache.mark_tx(1, write=False)
        assert cache.transactional_lines() == [1]

    def test_resident_lines(self, cache):
        cache.fill(1, LineState.SHARED)
        cache.fill(2, LineState.SHARED)
        assert sorted(cache.resident_lines()) == [1, 2]

    def test_tx_index_matches_a_full_scan(self, cache):
        """Random fills, evictions, probes, tx marks, commits and aborts:
        the tx-line index always names exactly the resident lines that
        carry a tx bit, and commit/abort act on exactly those."""
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
                victim = cache.victim_for(line)
                if victim is not None:
                    cache.evict(victim.line)
                cache.fill(line, rng.choice(list(LineState)))
            elif op < 0.5:
                cache.mark_tx(line, write=rng.random() < 0.5)
            elif op < 0.6:
                cache.invalidate(line)
            elif op < 0.65:
                before = scan()
                assert sorted(cache.clear_tx_bits()) == before
                assert all(ln in cache.resident_lines() for ln in before)
            elif op < 0.7:
                before = scan()
                assert sorted(cache.invalidate_tx_lines()) == before
                assert not set(before) & set(cache.resident_lines())
            assert sorted(cache.transactional_lines()) == scan()
