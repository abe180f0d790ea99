"""Unit tests for the HTM statistics containers."""

from __future__ import annotations

import pytest

from repro.htm.stats import CoreStats, MachineStats


class TestCoreStats:
    def test_abort_rate(self):
        stats = CoreStats(core_id=0)
        assert stats.abort_rate == 0.0
        stats.tx_committed = 6
        stats.tx_aborted = 2
        assert stats.abort_rate == pytest.approx(0.25)

    def test_reason_dict_independent(self):
        a, b = CoreStats(0), CoreStats(1)
        a.abort_reasons["x"] = 1
        assert b.abort_reasons == {}


class TestMachineStats:
    def build(self):
        stats = MachineStats(3)
        for i, core in enumerate(stats.cores):
            core.tx_committed = 10 * (i + 1)
            core.tx_aborted = i
            core.ops_completed = 5 * (i + 1)
            core.abort_reasons["conflict_timeout"] = i
        return stats

    def test_totals(self):
        stats = self.build()
        assert stats.tx_committed == 60
        assert stats.tx_aborted == 3
        assert stats.ops_completed == 30
        assert stats.total("tx_committed") == 60

    def test_abort_rate_aggregate(self):
        stats = self.build()
        assert stats.abort_rate == pytest.approx(3 / 63)

    def test_abort_reasons_merged(self):
        stats = self.build()
        assert stats.abort_reasons() == {"conflict_timeout": 3}

    def test_throughput_zero_cycles(self):
        stats = MachineStats(1)
        assert stats.throughput_ops_per_sec(1.0) == 0.0

    def test_throughput_conversion(self):
        stats = MachineStats(1)
        stats.core(0).ops_completed = 1000
        stats.cycles = 1e6
        # 1000 ops / 1e6 cycles at 1 GHz = 1e6 ops/s
        assert stats.throughput_ops_per_sec(1.0) == pytest.approx(1e6)
        # doubling the clock doubles ops/s
        assert stats.throughput_ops_per_sec(2.0) == pytest.approx(2e6)

    def test_summary_keys(self):
        stats = self.build()
        stats.cycles = 100.0
        summary = stats.summary()
        for key in ("cycles", "ops", "commits", "aborts", "abort_rate"):
            assert key in summary

    def test_core_accessor(self):
        stats = MachineStats(2)
        assert stats.core(1).core_id == 1
        with pytest.raises(IndexError):
            stats.core(5)


class TestFaultCounterShim:
    """The registry migration of fault counters (docs/OBSERVABILITY.md)."""

    def test_fault_counts_reads_registry(self):
        stats = MachineStats(1)
        stats.registry.counter("fault_spurious_aborts").inc(3)
        stats.registry.counter("unrelated").inc()
        assert stats.fault_counts() == {"spurious_aborts": 3}

    def test_digest_covers_fault_counters(self):
        a, b = MachineStats(1), MachineStats(1)
        assert a.digest() == b.digest()
        b.registry.counter("fault_spurious_aborts").inc()
        assert a.digest() != b.digest()


class TestKAwareAblation:
    def test_registry(self):
        from repro.experiments import EXPERIMENTS, run_experiment

        assert "abl_k_aware" in EXPERIMENTS
        result = run_experiment("abl_k_aware", quick=True, seed=2018)
        assert all(r["k_aware_ops"] > 0 for r in result.rows)
