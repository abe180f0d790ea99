"""Metrics-invariant tests: the books balance, at any ``--jobs``.

Three layers of accounting are cross-checked here
(docs/OBSERVABILITY.md):

* machine counters against each other — every started transaction is
  resolved exactly once, grace timers never expire more often than
  they are armed;
* counters against the trace bus — each counted occurrence has its
  structured event;
* the CLI's merged ``--metrics-out`` / ``--trace-out`` artifacts are
  byte-identical across worker counts (the determinism contract the CI
  step enforces on real figure runs).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.htm import Machine, MachineParams, RandDelay
from repro.obs import capture
from repro.parallel.cache import ResultCache
from repro.workloads import CounterWorkload

HORIZON = 60_000.0


@pytest.fixture(scope="module")
def machine_capture():
    """One contended 4-core run recorded under a capture.

    The machine must be *built* inside the capture: its registry chains
    to the active one at handle-creation time.
    """
    with capture() as cap:
        machine = Machine(MachineParams(n_cores=4), lambda i: RandDelay())
        machine.load(CounterWorkload(), seed=7)
        stats = machine.run(HORIZON)
    return cap, stats


class TestMachineInvariants:
    def counters(self, machine_capture):
        return machine_capture[0].snapshot()["counters"]

    def test_run_was_contended(self, machine_capture):
        c = self.counters(machine_capture)
        assert c["conflicts"] > 0
        assert c["aborts_rw"] + c.get("aborts_ra", 0) > 0

    def test_every_txn_resolved_exactly_once(self, machine_capture):
        c = self.counters(machine_capture)
        assert (
            c["commits"] + c["aborts_rw"] + c.get("aborts_ra", 0)
            == c["txns_started"]
        )

    def test_grace_granted_at_least_expired(self, machine_capture):
        c = self.counters(machine_capture)
        assert c["grace_granted"] >= c["grace_expired"]

    def test_delay_histogram_subset_of_conflicts(self, machine_capture):
        # the histogram records policy *decisions*; conflicts also counts
        # probes resolved without a fresh decision (wedged aborts,
        # already-armed grace timers)
        snap = machine_capture[0].snapshot()
        hist = snap["histograms"]["grace_delay_cycles"]
        assert 0 < hist["n"] <= snap["counters"]["conflicts"]

    def test_stats_agree_with_registry(self, machine_capture):
        cap, stats = machine_capture
        c = self.counters(machine_capture)
        assert stats.tx_committed == c["commits"]
        assert stats.tx_aborted == c["aborts_rw"] + c.get("aborts_ra", 0)

    def test_events_match_counters(self, machine_capture):
        cap, _ = machine_capture
        c = self.counters(machine_capture)
        kinds: dict[str, int] = {}
        for event in cap.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        assert kinds["txn_begin"] == c["txns_started"]
        assert kinds["commit"] == c["commits"]
        assert kinds.get("abort", 0) == c["aborts_rw"] + c.get("aborts_ra", 0)
        assert kinds["grace_granted"] == c["grace_granted"]
        assert kinds.get("grace_expired", 0) == c["grace_expired"]


class TestCacheCounters:
    def test_lookups_are_counted_and_traced(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="test")
        with capture() as cap:
            assert cache.get_rows("e", {}, quick=True, seed=1) is None
            cache.put_rows("e", [{"a": 1}], {}, quick=True, seed=1)
            assert cache.get_rows("e", {}, quick=True, seed=1) == [{"a": 1}]
        counters = cap.snapshot()["counters"]
        assert counters == {"cache_hits": 1, "cache_misses": 1}
        assert [e.kind for e in cap.events] == ["cache_miss", "cache_hit"]
        assert counters["cache_hits"] + counters["cache_misses"] == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="test")
        path = cache.put_rows("e", [{"a": 1}], {}, quick=True, seed=1)
        path.write_text("{not json")
        with capture() as cap:
            assert cache.get_rows("e", {}, quick=True, seed=1) is None
        # detected bit rot is both counted in its own right and a miss
        assert cap.snapshot()["counters"] == {
            "cache_corrupt": 1,
            "cache_misses": 1,
        }


class TestCliDeterminism:
    """--metrics-out / --trace-out bytes do not depend on --jobs."""

    def run_cli(self, tmp_path, jobs, label, extra=(), ids=("fig2a",)):
        metrics = tmp_path / f"metrics-{label}.json"
        trace = tmp_path / f"trace-{label}.jsonl"
        rc = cli_main(
            [
                *ids,
                "--quick",
                "--seed",
                "3",
                "--jobs",
                str(jobs),
                "--metrics-out",
                str(metrics),
                "--trace-out",
                str(trace),
                *extra,
            ]
        )
        assert rc == 0
        return metrics.read_bytes(), trace.read_bytes()

    def test_jobs_1_vs_4_byte_identical(self, tmp_path, capsys):
        serial = self.run_cli(tmp_path, 1, "serial")
        parallel = self.run_cli(tmp_path, 4, "parallel")
        assert serial == parallel

    def test_sharded_experiment_jobs_1_vs_2_byte_identical(
        self, tmp_path, capsys
    ):
        """fig3_txapp fans its cells out through the pool's starmap, so
        this covers the shard path the fig2a runs above never take."""
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            metrics, trace = out / "metrics.json", out / "trace.jsonl"
            rc = cli_main(
                [
                    "fig3_txapp", "--quick", "--seed", "3", "--no-cache",
                    "--json", "--jobs", str(jobs), "--out", str(out),
                    "--metrics-out", str(metrics), "--trace-out", str(trace),
                ]
            )
            assert rc == 0
            outputs.append(
                [
                    (out / "fig3_txapp.json").read_bytes(),
                    metrics.read_bytes(),
                    trace.read_bytes(),
                ]
            )
        assert outputs[0] == outputs[1]
        assert outputs[0][2]  # the run was actually traced

    @pytest.mark.slow
    def test_scorecard_batch_jobs_1_vs_2_byte_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        """At --jobs 1 the scorecard runs after fig2a and fig2c in one
        process; at --jobs 2 its worker ran at most one of them.  Under
        a capture it grades no kept rows, so both record every sub-run."""
        from repro.experiments import registry

        outputs = []
        for jobs in (1, 2):
            # each CLI run starts, as a fresh process does, with no rows
            monkeypatch.setattr(registry, "_LAST_ROWS", {})
            outputs.append(
                self.run_cli(
                    tmp_path,
                    jobs,
                    f"scorecard-{jobs}",
                    ("--no-cache",),
                    ids=("fig2a", "fig2c", "scorecard"),
                )
            )
        assert outputs[0] == outputs[1]

    def test_metrics_snapshot_is_wellformed(self, tmp_path, capsys):
        metrics, trace = self.run_cli(tmp_path, 2, "shape")
        snap = json.loads(metrics)
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"].get("synthetic_runs", 0) > 0
        for line in trace.splitlines():
            record = json.loads(line)
            assert set(record) == {"ts", "kind", "core", "data"}

    def test_warm_cache_counts_hits(self, tmp_path, capsys):
        cache_args = ("--cache", "--cache-dir", str(tmp_path / "cache"))
        cold_metrics, _ = self.run_cli(tmp_path, 1, "cold", cache_args)
        warm_metrics, _ = self.run_cli(tmp_path, 1, "warm", cache_args)
        cold = json.loads(cold_metrics)["counters"]
        warm = json.loads(warm_metrics)["counters"]
        assert cold.get("cache_misses", 0) >= 1
        assert cold.get("cache_hits", 0) == 0
        assert warm.get("cache_hits", 0) >= 1
        assert warm.get("cache_misses", 0) == 0
