"""Crash-tolerance layer: seeded chaos, the supervised worker pool,
finishing an interrupted batch against the result cache, and the chaos
determinism gate.

The headline contract under test: with any seeded chaos schedule that
lets the run complete, result rows are byte-identical to the fault-free
run — supervision decides only where and how often a task body
executes, never what it computes.  An interrupted batch reruns against
its cache to the same rows.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.cli import main
from repro.errors import FaultInjectionError, InvalidParameterError
from repro.experiments import EXPERIMENTS, register_experiment
from repro.experiments.registry import _SPECS
from repro.faults import ChaosPlan, corrupt_bytes
from repro.obs import capture
from repro.parallel import (
    ExperimentTask,
    ResultCache,
    SupervisedPool,
    atomic_write_text,
    scan_cache_dir,
)
from repro.parallel.cache_cli import cache_main
from repro.parallel.supervisor import classify_exit


@pytest.fixture
def scratch(monkeypatch):
    """Register throwaway experiments; workers inherit them via fork."""
    registered: list[str] = []

    def _register(exp_id, runner, **kwargs):
        register_experiment(exp_id, f"test double {exp_id}", runner, **kwargs)
        registered.append(exp_id)
        return exp_id

    yield _register
    for exp_id in registered:
        _SPECS.pop(exp_id, None)
        EXPERIMENTS.pop(exp_id, None)


def _rows(**kw):
    return [{"x": 1}]


def _die(**kw):
    os._exit(3)


class _SeededRows:
    """Picklable runner whose rows depend only on the seed."""

    def __call__(self, seed=None, **kw):
        return [{"seed": seed, "v": (seed or 0) * 3 + 1}]


def _tasks(ids, seed=None):
    return [ExperimentTask(exp_id, seed=seed) for exp_id in ids]


# ---------------------------------------------------------------------------
class TestAtomicWrite:
    def test_roundtrip_and_replace(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"
        # no temp litter left behind on success
        assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
class TestChaosPlan:
    def test_deterministic_and_seed_sensitive(self):
        plan = ChaosPlan(seed=42, kill_rate=0.5)
        draws = [plan.should_kill(f"e{i}", 0) for i in range(64)]
        assert draws == [
            ChaosPlan(seed=42, kill_rate=0.5).should_kill(f"e{i}", 0)
            for i in range(64)
        ]
        assert any(draws) and not all(draws)
        other = [
            ChaosPlan(seed=43, kill_rate=0.5).should_kill(f"e{i}", 0)
            for i in range(64)
        ]
        assert draws != other

    def test_safe_attempt_guarantees_termination(self):
        plan = ChaosPlan(seed=1, kill_rate=1.0, safe_attempt=2)
        assert plan.should_kill("e", 0) and plan.should_kill("e", 1)
        assert not plan.should_kill("e", 2)
        assert not plan.should_stop("e", 2)

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            ChaosPlan(seed=1, kill_rate=1.5)
        with pytest.raises(FaultInjectionError):
            ChaosPlan(seed=1, safe_attempt=0)
        with pytest.raises(FaultInjectionError):
            ChaosPlan.from_dict({"seed": 1, "bogus": 2})

    def test_roundtrip(self):
        plan = ChaosPlan(seed=9, kill_rate=0.3, stop_rate=0.1)
        assert ChaosPlan.from_dict(plan.to_dict()) == plan


# ---------------------------------------------------------------------------
class TestSupervisedPool:
    def test_classify_exit(self):
        assert classify_exit(-signal.SIGKILL) == "signal:SIGKILL"
        assert classify_exit(0) == "clean"
        assert classify_exit(3) == "exit:3"
        assert classify_exit(None) == "unknown"

    @pytest.mark.parametrize(
        "budget", ["max_task_reexecutions", "max_worker_restarts"]
    )
    def test_negative_budget_rejected(self, budget):
        with pytest.raises(InvalidParameterError, match=budget):
            SupervisedPool(2, **{budget: -1})

    def test_crash_reexecution_budget_and_exit_cause(self, scratch):
        """A worker that always dies exhausts the re-execution budget and
        the outcome reports the classified cause."""
        exp_id = scratch("zz_chaos_die", _die)
        ok = scratch("zz_chaos_ok", _rows)
        pool = SupervisedPool(2, max_task_reexecutions=1)
        outcome, _ = pool.run(_tasks([exp_id, ok]))
        assert outcome.status == "failed"
        assert outcome.exit_cause == "exit:3"
        assert outcome.attempts == 2  # original + 1 re-execution
        assert pool.stats.worker_crashes == 2
        assert pool.stats.task_reexecutions == 1

    def test_chaos_kills_are_survived(self, scratch):
        """Seeded SIGKILLs: every task completes and rows match the
        fault-free run; crash/restart counters are populated."""
        runner = _SeededRows()
        ids = [scratch(f"zz_cs{i}", runner) for i in range(6)]
        plan = ChaosPlan(seed=7, kill_rate=0.6, safe_attempt=2)
        assert any(plan.should_kill(i, 0) for i in ids)  # chaos actually bites
        pool = SupervisedPool(2, max_task_reexecutions=2, chaos=plan)
        outcomes = pool.run(_tasks(ids, seed=11))
        assert [o.status for o in outcomes] == ["ok"] * 6
        baseline = SupervisedPool(2).run(_tasks(ids, seed=11))
        assert [o.result.rows for o in outcomes] == [
            o.result.rows for o in baseline
        ]
        assert pool.stats.worker_crashes > 0
        assert pool.stats.worker_restarts > 0

    def test_restart_budget_degrades_to_serial(self, scratch):
        """With no restart budget the pool empties and the remaining
        tasks still complete — serially, in the parent."""
        runner = _SeededRows()
        ids = [scratch(f"zz_dg{i}", runner) for i in range(4)]
        plan = ChaosPlan(seed=3, kill_rate=1.0, safe_attempt=1)
        pool = SupervisedPool(
            1, max_task_reexecutions=1, max_worker_restarts=0, chaos=plan
        )
        with capture() as cap:
            outcomes = pool.run(_tasks(ids, seed=5))
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert pool.stats.degraded_to_serial == 1
        assert any(e.kind == "degraded_to_serial" for e in cap.events)
        baseline = SupervisedPool(1).run(_tasks(ids, seed=5))
        assert [o.result.rows for o in outcomes] == [
            o.result.rows for o in baseline
        ]

    def test_sigstop_hang_detected_by_heartbeat(self, scratch):
        """A SIGSTOPped worker stops heartbeating; the supervisor kills
        it and re-executes its task on a replacement."""
        runner = _SeededRows()
        exp_id = scratch("zz_stop", runner)
        plan = ChaosPlan(seed=2, kill_rate=0.0, stop_rate=1.0, safe_attempt=1)
        pool = SupervisedPool(
            1, max_task_reexecutions=1, chaos=plan, heartbeat_timeout=1.0
        )
        start = time.monotonic()
        (outcome,) = pool.run(_tasks([exp_id], seed=1))
        assert time.monotonic() - start < 30.0
        assert outcome.status == "ok"
        assert pool.stats.heartbeat_timeouts >= 1


# ---------------------------------------------------------------------------
#: A batch of seeded experiments whose second cache write is cut by
#: SIGKILL after the entry's temp file is synced and before it is renamed
#: into place.  argv: cache dir, then the experiment ids.
_KILLED_BATCH = textwrap.dedent(
    """
    import os
    import signal
    import sys

    from repro.cli import main
    from repro.experiments import register_experiment


    def rows(seed=None, **kw):
        return [{"seed": seed, "v": (seed or 0) * 3 + 1}]


    cache_dir, ids = sys.argv[1], sys.argv[2:]
    for exp_id in ids:
        register_experiment(exp_id, "seeded", rows)
    replace = os.replace


    def killed_replace(src, dst):
        if os.path.basename(dst).startswith(ids[1] + "-"):
            os.kill(os.getpid(), signal.SIGKILL)
        replace(src, dst)


    os.replace = killed_replace
    main([*ids, "--seed", "13", "--cache", "--cache-dir", cache_dir])
    """
)


class TestKillMidCheckpointWrite:
    def test_sigkill_mid_write_resumes_byte_identical(self, scratch, tmp_path):
        """A batch SIGKILLed in the middle of a cache write keeps every
        entry written before it and leaves no torn one.  Rerunning the
        batch against the cache finishes it: the durable entry is a hit,
        and every --out file is byte-identical to an uninterrupted run."""
        import repro

        runner = _SeededRows()
        ids = [scratch(f"zz_kr{i}", runner) for i in range(4)]
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        killed = subprocess.run(
            [sys.executable, "-c", _KILLED_BATCH, str(cache_dir), *ids],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        assert killed.returncode == -signal.SIGKILL
        # ids[0] is durable; ids[1] left only its temp file behind
        assert [r.status for r in scan_cache_dir(cache_dir)] == ["ok"]
        assert list(cache_dir.glob(f"{ids[1]}-*.json.tmp.*"))

        out_clean, out_resumed = tmp_path / "clean", tmp_path / "resumed"
        base = [*ids, "--seed", "13", "--json"]
        assert main([*base, "--no-cache", "--out", str(out_clean)]) == 0
        metrics = tmp_path / "metrics.json"
        assert main(
            [*base, "--jobs", "2", "--cache", "--cache-dir", str(cache_dir),
             "--out", str(out_resumed), "--metrics-out", str(metrics)]
        ) == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["cache_hits"] == 1
        assert counters["cache_misses"] == 3
        for exp_id in ids:
            for suffix in (".json", ".txt"):
                name = exp_id + suffix
                assert (out_resumed / name).read_bytes() == (
                    out_clean / name
                ).read_bytes()
        assert [r.status for r in scan_cache_dir(cache_dir)] == ["ok"] * 4


# ---------------------------------------------------------------------------
class TestChaosCLI:
    def test_chaos_run_matches_fault_free_serial(self, scratch, tmp_path):
        """The acceptance gate in miniature: a batch interrupted after
        two experiments, one of whose cache entries then rots, reruns
        against its cache under --jobs 4 --chaos.  The intact entry
        hits, the rotten one is recomputed, every row is byte-identical
        to the fault-free --jobs 1 run, and the crash counts appear in
        the metrics snapshot and trace JSONL."""
        runner = _SeededRows()
        ids = [scratch(f"zz_cg{i}", runner) for i in range(5)]
        out_serial, out_chaos = tmp_path / "serial", tmp_path / "chaos"
        cache = ["--cache", "--cache-dir", str(tmp_path / "cache")]
        base = [*ids, "--seed", "3", "--json"]
        assert main(
            [*base, "--jobs", "1", "--no-cache", "--out", str(out_serial)]
        ) == 0

        # the interrupted batch, then bit rot in one of its entries
        assert main([ids[0], ids[1], "--seed", "3", *cache]) == 0
        (entry,) = (tmp_path / "cache").glob(f"{ids[1]}-*.json")
        assert corrupt_bytes(entry, seed=5) > 0
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.jsonl"
        assert main(
            [*base, "--jobs", "4", "--chaos", "1234", *cache,
             "--out", str(out_chaos),
             "--metrics-out", str(metrics), "--trace-out", str(trace)]
        ) == 0
        for exp_id in ids:
            assert (out_chaos / f"{exp_id}.json").read_bytes() == (
                out_serial / f"{exp_id}.json"
            ).read_bytes()
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["cache_hits"] == 1
        assert counters["cache_corrupt"] == 1
        # chaos at kill_rate 0.25 over 5 tasks with this seed must bite
        assert counters.get("worker_crashes", 0) > 0
        kinds = {
            json.loads(line)["kind"] for line in trace.read_text().splitlines()
        }
        assert "worker_crashed" in kinds

    def test_chaos_requires_jobs(self, scratch, capsys):
        exp_id = scratch("zz_cj", _rows)
        assert main([exp_id, "--chaos", "1"]) == 0
        assert "needs --jobs > 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
class TestCacheVerifyPrune:
    def _seed_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir, fingerprint="f" * 64)
        cache.put_rows("aa", [{"x": 1}], {}, quick=False, seed=None)
        cache.put_rows("bb", [{"x": 2}], {}, quick=False, seed=None)
        return cache_dir, cache

    def test_corrupt_entry_detected_and_pruned(self, tmp_path, capsys):
        cache_dir, cache = self._seed_cache(tmp_path)
        (entry,) = sorted(cache_dir.glob("bb-*.json"))
        corrupt_bytes(entry, seed=5)  # deliberate bit rot
        reports = scan_cache_dir(cache_dir)
        assert [r.status for r in reports] == ["ok", "corrupt"]
        assert cache.get_rows("bb", {}, quick=False, seed=None) is None

        assert cache_main(["verify", "--cache-dir", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and str(entry) in out

        assert cache_main(["prune", "--cache-dir", str(cache_dir)]) == 0
        assert not entry.exists()
        assert len(list(cache_dir.glob("*.json"))) == 1
        assert cache_main(["verify", "--cache-dir", str(cache_dir)]) == 0

    def test_crc_mismatch_counts_as_corrupt_metric(self, tmp_path):
        cache_dir, cache = self._seed_cache(tmp_path)
        (entry,) = sorted(cache_dir.glob("aa-*.json"))
        payload = json.loads(entry.read_text())
        payload["rows"] = [{"x": 999}]  # rows swapped, crc now stale
        entry.write_text(json.dumps(payload))
        with capture() as cap:
            assert cache.get_rows("aa", {}, quick=False, seed=None) is None
        assert cap.snapshot()["counters"]["cache_corrupt"] == 1

    def test_verify_json_output(self, tmp_path, capsys):
        cache_dir, _ = self._seed_cache(tmp_path)
        assert cache_main(
            ["verify", "--cache-dir", str(cache_dir), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2 and payload["corrupt"] == 0

    def test_prune_sweeps_tmp_litter(self, tmp_path):
        cache_dir, _ = self._seed_cache(tmp_path)
        litter = cache_dir / "aa-deadbeef.json.tmp.12345"
        litter.write_text("partial")
        assert cache_main(["prune", "--cache-dir", str(cache_dir)]) == 0
        assert not litter.exists()

    def test_cache_subcommand_dispatch(self, tmp_path, capsys):
        assert main(
            ["cache", "verify", "--cache-dir", str(tmp_path / "empty")]
        ) == 0
        assert "0 entries" in capsys.readouterr().out
