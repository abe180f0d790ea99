"""Parallel execution layer: the supervised pool (experiment batches
and shard starmaps), the content-addressed result cache, and the CLI's
--jobs/--cache wiring.

The load-bearing contract everywhere: rows are a function of
(experiment, quick, seed, fixed shard count) — never of --jobs, the
pool, or the cache.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.cli import main
from repro.errors import (
    ExperimentError,
    InvalidParameterError,
    SimulationError,
)
from repro.experiments import EXPERIMENTS, register_experiment, run_experiment
from repro.experiments.registry import _SPECS
from repro.parallel import (
    ExperimentTask,
    ResultCache,
    SupervisedPool,
    cache_key,
)


@pytest.fixture
def scratch(monkeypatch):
    """Register throwaway experiments; deregister them afterwards.

    Workers inherit these via fork, so pool tests can use
    registrations made in the test process.
    """
    registered: list[str] = []

    def _register(exp_id, runner, **kwargs):
        register_experiment(exp_id, f"test double {exp_id}", runner, **kwargs)
        registered.append(exp_id)
        return exp_id

    yield _register
    for exp_id in registered:
        _SPECS.pop(exp_id, None)
        EXPERIMENTS.pop(exp_id, None)


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _raise_if(exc):
    if exc is not None:
        raise exc


def _sharded_rows(pool=None, **kw):
    """A runner that fans its shards out over the pool it is given."""
    return [{"sq": v} for v in pool.starmap(_square, [(i,) for i in range(4)])]


def _shard_dies(_):
    os._exit(5)


def _dying_shards(pool=None, **kw):
    return pool.starmap(_shard_dies, [(i,) for i in range(2)])


def _rows(**kw):
    return [{"x": 1}]


def _fail(**kw):
    raise SimulationError("injected failure")


def _die(**kw):  # worker vanishes without sending a result
    os._exit(3)


def _slow_rows(**kw):
    time.sleep(0.6)
    return [{"x": "slow"}]


def _hang(**kw):  # killable by the in-worker SIGALRM watchdog
    while True:
        time.sleep(0.02)


def _stubborn_hang(**kw):
    """A SIGALRM-proof hang: swallows the watchdog's exception.

    Only the parent's process-level kill can stop this — the regression
    case for the old silently-unenforced timeout.
    """
    while True:
        try:
            time.sleep(0.02)
        except BaseException:
            pass


class _MarkingRunner:
    """Picklable runner that appends a line to a file per invocation,
    so call counts survive the process boundary."""

    def __init__(self, path):
        self.path = str(path)

    def __call__(self, **kw):
        with open(self.path, "a") as fh:
            fh.write("run\n")
        return [{"x": 1}]


def _runs(path) -> int:
    try:
        return path.read_text().count("run")
    except FileNotFoundError:
        return 0


#: A batch of slow experiments for the Ctrl-C test, run as a script so
#: the signal can go to a whole process group.
_SLOW_BATCH = textwrap.dedent(
    """
    import sys
    import time

    from repro.cli import main
    from repro.experiments import register_experiment


    def slow(**kw):
        time.sleep(120)
        return []


    ids = [f"zz_sigint{i}" for i in range(4)]
    for exp_id in ids:
        register_experiment(exp_id, "slow", slow)
    sys.exit(main([*ids, "--jobs", "2", "--no-cache"]))
    """
)


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        state, _ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def _cache_args(tmp_path) -> list[str]:
    """CLI flags that turn the result cache on under ``tmp_path``."""
    return ["--cache", "--cache-dir", str(tmp_path / "cache")]


def _same_outputs(a, b) -> None:
    """Two ``--out`` directories hold the same files, byte for byte."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ---------------------------------------------------------------------------
class TestPools:
    def test_starmap_inline_at_one_job(self):
        pool = SupervisedPool(1)
        assert pool.starmap(_square, [(i,) for i in range(5)]) == [
            0, 1, 4, 9, 16,
        ]
        assert set(pool.starmap(_pid, [(i,) for i in range(3)])) == {
            os.getpid()
        }

    def test_process_pool_preserves_order(self):
        pool = SupervisedPool(2)
        out = pool.starmap(_square, [(i,) for i in range(20)])
        assert out == [i * i for i in range(20)]
        assert os.getpid() not in pool.starmap(_pid, [(0,), (1,)])

    def test_jobs_validation(self):
        with pytest.raises(InvalidParameterError):
            SupervisedPool(0)

    def test_starmap_failure_raises_in_caller(self):
        """repro.errors types survive the process boundary (so a
        SimulationError is still retried); others become ExperimentError."""
        pool = SupervisedPool(2)
        with pytest.raises(SimulationError, match="shard"):
            pool.starmap(_raise_if, [(SimulationError("shard"),), (None,)])
        with pytest.raises(ExperimentError, match="ValueError: bad"):
            pool.starmap(_raise_if, [(None,), (ValueError("bad"),)])

    def test_lone_experiment_runs_in_parent_and_shards_on_pool(self, scratch):
        """The in-parent rule: one task never waits on a worker, and at
        jobs > 1 it gets the pool itself for its shards."""
        exp_id = scratch("zz_sharded", _sharded_rows)
        (outcome,) = SupervisedPool(2).run([ExperimentTask(exp_id)])
        assert outcome.ok
        assert outcome.result.rows == [{"sq": v} for v in (0, 1, 4, 9)]

    def test_nested_starmap_keeps_outer_stats(self, scratch):
        """Shard workers that die fail the experiment; their crashes do
        not overwrite the in-parent run's own supervision counters."""
        exp_id = scratch("zz_dying_shards", _dying_shards)
        pool = SupervisedPool(2)
        (outcome,) = pool.run([ExperimentTask(exp_id)])
        assert outcome.status == "failed"
        assert outcome.error_type == "ExperimentError"
        assert "exited without a result" in outcome.error
        assert not pool.stats.any()


# ---------------------------------------------------------------------------
class TestResultCache:
    def test_roundtrip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f" * 64)
        rows = [
            {"ratio": 0.1 + 0.2, "n": 3, "label": "DET", "tiny": 5e-324},
            {"ratio": 2.0 / 3.0, "n": 4, "label": "OPT", "tiny": 1e308},
        ]
        assert cache.get_rows("zz", {"a": 1}, quick=True, seed=3) is None
        cache.put_rows("zz", rows, {"a": 1}, quick=True, seed=3)
        hit = cache.get_rows("zz", {"a": 1}, quick=True, seed=3)
        assert hit == rows  # bit-exact floats: JSON shortest-repr round-trip

    def test_key_sensitivity(self):
        base = dict(quick=True, seed=3, fingerprint="a" * 64)
        k = cache_key("zz", {"a": 1}, **base)
        assert cache_key("zz", {"a": 2}, **base) != k
        assert cache_key("zz2", {"a": 1}, **base) != k
        assert cache_key("zz", {"a": 1}, **{**base, "seed": 4}) != k
        assert cache_key("zz", {"a": 1}, **{**base, "quick": False}) != k
        assert (
            cache_key("zz", {"a": 1}, **{**base, "fingerprint": "b" * 64})
            != k
        )
        # kwarg ordering must NOT matter
        assert cache_key("zz", {"b": 2, "a": 1}, **base) == cache_key(
            "zz", {"a": 1, "b": 2}, **base
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f" * 64)
        cache.put_rows("zz", [{"x": 1}], {}, quick=False, seed=None)
        (entry,) = list(tmp_path.glob("zz-*.json"))
        entry.write_text("{ not json")
        assert cache.get_rows("zz", {}, quick=False, seed=None) is None

    def test_unserializable_rows_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f" * 64)
        assert (
            cache.put_rows("zz", [{"x": object()}], {}, quick=False, seed=None)
            is None
        )
        assert list(tmp_path.glob("*.json")) == []

    def test_run_experiment_cache_hit(self, scratch, tmp_path):
        calls = []

        def runner(**kw):
            calls.append(1)
            return [{"v": 0.1 + 0.2, "n": 7}]

        exp_id = scratch("zz_cached", runner)
        cache = ResultCache(tmp_path)
        first = run_experiment(exp_id, cache=cache)
        second = run_experiment(exp_id, cache=cache)
        assert len(calls) == 1
        assert not first.cached and second.cached
        assert second.rows == first.rows
        assert second.params == first.params
        assert second.title == first.title

    def test_failures_never_cached(self, scratch, tmp_path):
        exp_id = scratch("zz_fail", _fail)
        cache = ResultCache(tmp_path)
        with pytest.raises(SimulationError):
            run_experiment(exp_id, cache=cache)
        assert list(tmp_path.glob(f"{exp_id}-*.json")) == []


# ---------------------------------------------------------------------------
def _tasks(*ids, **kwargs):
    return [ExperimentTask(exp_id, **kwargs) for exp_id in ids]


class TestExecutor:
    def test_submission_order_out_completion_order_hook(self, scratch):
        scratch("zz_slow", _slow_rows)
        scratch("zz_fast", _rows)
        completion: list[str] = []
        outcomes = SupervisedPool(2).run(
            _tasks("zz_slow", "zz_fast"),
            on_outcome=lambda o: completion.append(o.exp_id),
        )
        assert [o.exp_id for o in outcomes] == ["zz_slow", "zz_fast"]
        assert completion == ["zz_fast", "zz_slow"]
        assert all(o.ok for o in outcomes)
        assert outcomes[1].result.rows == [{"x": 1}]

    def test_worker_crash_reported_not_hung(self, scratch):
        exp_id = scratch("zz_die", _die)
        ok = scratch("zz_ok_die", _rows)
        outcome, _ = SupervisedPool(2).run(_tasks(exp_id, ok))
        assert outcome.status == "failed"
        assert "exited without a result" in outcome.error
        assert "exit code 3" in outcome.error

    def test_in_worker_watchdog_fires(self, scratch):
        """Workers run on their own main thread, so SIGALRM is armed."""
        exp_id = scratch("zz_hang", _hang)
        ok = scratch("zz_ok_hang", _rows)
        outcome, _ = SupervisedPool(2, timeout=0.2, kill_grace=5.0).run(
            _tasks(exp_id, ok, timeout=0.2)
        )
        assert outcome.error_type == "ExperimentTimeoutError"
        assert "killed by the parent" not in outcome.error

    def test_parent_kills_sigalrm_proof_hang(self, scratch):
        """Regression: a runner that swallows the watchdog exception used
        to hang forever; the parent must kill the worker process."""
        exp_id = scratch("zz_stubborn", _stubborn_hang)
        ok = scratch("zz_ok_stubborn", _rows)
        start = time.monotonic()
        outcome, _ = SupervisedPool(2, timeout=0.3, kill_grace=0.3).run(
            _tasks(exp_id, ok, timeout=0.3)
        )
        assert time.monotonic() - start < 10.0
        assert outcome.status == "failed"
        assert outcome.error_type == "ExperimentTimeoutError"
        assert "killed by the parent" in outcome.error

    def test_stop_on_failure_skips_unstarted(self, scratch):
        scratch("zz_f1", _fail)
        scratch("zz_ok1", _rows)
        outcomes = SupervisedPool(1).run(
            _tasks("zz_f1", "zz_ok1"), stop_on_failure=True
        )
        assert [o.status for o in outcomes] == ["failed", "skipped"]


# ---------------------------------------------------------------------------
class TestWatchdogOffMainThread:
    def test_warns_and_still_runs(self, scratch, caplog):
        """Satellite 1: off the main thread the SIGALRM watchdog cannot
        arm — that must be a logged warning, never a silent no-op."""
        exp_id = scratch("zz_threaded", _rows)
        results: list = []
        with caplog.at_level(
            logging.WARNING, logger="repro.experiments.registry"
        ):
            t = threading.Thread(
                target=lambda: results.append(
                    run_experiment(exp_id, timeout=5.0)
                )
            )
            t.start()
            t.join()
        assert results and results[0].rows == [{"x": 1}]
        assert any(
            "SIGALRM watchdog cannot arm here, so the budget is not "
            "enforced" in rec.message
            for rec in caplog.records
        )


# ---------------------------------------------------------------------------
class TestCLIParallel:
    def test_jobs_validation(self, capsys):
        assert main(["fig2a", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_invariance_of_json_rows(self, tmp_path):
        """The acceptance check: --jobs changes wall clock, never rows."""
        out1, out4 = tmp_path / "j1", tmp_path / "j4"
        args = ["fig2a", "tab_ratios", "--quick", "--seed", "3", "--json"]
        assert main([*args, "--jobs", "4", "--out", str(out4)]) == 0
        assert main([*args, "--jobs", "1", "--out", str(out1)]) == 0
        for exp_id in ("fig2a", "tab_ratios"):
            a = (out1 / f"{exp_id}.json").read_text()
            b = (out4 / f"{exp_id}.json").read_text()
            assert a == b, f"{exp_id} rows differ between --jobs 1 and 4"

    def test_parallel_keep_going_checkpoint_and_resume(
        self, scratch, tmp_path
    ):
        """Rerunning a --keep-going batch against its cache: completed
        experiments are hits, only the failure runs again, and the rerun
        writes the same --out files."""
        mark_a, mark_c = tmp_path / "a.log", tmp_path / "c.log"
        scratch("zz_pa", _MarkingRunner(mark_a))
        scratch("zz_pb", _fail)
        scratch("zz_pc", _MarkingRunner(mark_c))
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        batch = ["zz_pa", "zz_pb", "zz_pc", "--jobs", "2", "--keep-going",
                 "--json", *_cache_args(tmp_path)]
        assert main([*batch, "--out", str(first)]) == 1  # zz_pb failed
        assert _runs(mark_a) == 1 and _runs(mark_c) == 1
        assert main([*batch, "--out", str(rerun)]) == 1
        assert _runs(mark_a) == 1 and _runs(mark_c) == 1
        _same_outputs(first, rerun)
        assert not (rerun / "zz_pb.json").exists()  # failures write nothing

    def test_killed_batch_resumes_where_it_stopped(self, scratch, tmp_path):
        """A batch interrupted after its first experiment finishes on a
        rerun against the cache: the finished experiment is a hit, and
        every --out file matches an uninterrupted run."""
        mark_a, mark_b = tmp_path / "a.log", tmp_path / "b.log"
        ids = [scratch("zz_ra", _MarkingRunner(mark_a)),
               scratch("zz_rb", _MarkingRunner(mark_b))]
        clean, resumed = tmp_path / "clean", tmp_path / "resumed"
        assert main([*ids, "--json", "--no-cache", "--out", str(clean)]) == 0
        # first invocation "dies" after completing only zz_ra
        assert main([ids[0], *_cache_args(tmp_path)]) == 0
        assert main(
            [*ids, "--jobs", "2", "--json", *_cache_args(tmp_path),
             "--out", str(resumed)]
        ) == 0
        assert _runs(mark_a) == 2  # clean run + interrupted run only
        assert _runs(mark_b) == 2  # clean run + the rerun
        _same_outputs(clean, resumed)

    def test_sigkill_mid_checkpoint_write_resumes_byte_identical(
        self, scratch, tmp_path
    ):
        """A cache entry torn mid-record (what a non-atomic write killed
        half-way would leave) is detected and recomputed on the rerun,
        and every --out file is byte-identical to an uninterrupted run
        (the crash-consistency headline, docs/ROBUSTNESS.md §3)."""
        marks = [tmp_path / f"{n}.log" for n in "abc"]
        ids = [
            scratch(f"zz_tk{n}", _MarkingRunner(m))
            for n, m in zip("abc", marks)
        ]
        clean, resumed = tmp_path / "clean", tmp_path / "resumed"
        assert main([*ids, "--json", "--no-cache", "--out", str(clean)]) == 0
        # interrupted run: two experiments reach the cache, then the
        # second entry loses its tail
        assert main([ids[0], ids[1], *_cache_args(tmp_path)]) == 0
        (entry,) = (tmp_path / "cache").glob(f"{ids[1]}-*.json")
        raw = entry.read_bytes()
        entry.write_bytes(raw[: len(raw) // 2])
        metrics = tmp_path / "metrics.json"
        assert main(
            [*ids, "--jobs", "2", "--json", *_cache_args(tmp_path),
             "--out", str(resumed), "--metrics-out", str(metrics)]
        ) == 0
        assert _runs(marks[0]) == 2  # clean run + interrupted run only
        assert _runs(marks[1]) == 3  # re-run after the torn entry
        assert _runs(marks[2]) == 2
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["cache_hits"] == 1
        assert counters["cache_corrupt"] == 1
        _same_outputs(clean, resumed)

    def test_keyboard_interrupt_propagates_at_jobs_1(self, scratch, tmp_path):
        """In the parent the pool catches Exception only: Ctrl-C stops a
        --jobs 1 batch instead of becoming a failure outcome."""

        def interrupted(**kw):
            raise KeyboardInterrupt

        mark = tmp_path / "after.log"
        first = scratch("zz_ctrl_c", interrupted)
        after = scratch("zz_after_ctrl_c", _MarkingRunner(mark))
        with pytest.raises(KeyboardInterrupt):
            main([first, after, "--jobs", "1", "--no-cache"])
        assert _runs(mark) == 0

    @pytest.mark.skipif(
        not os.path.isdir("/proc") or not hasattr(os, "killpg"),
        reason="needs /proc and process groups",
    )
    def test_ctrl_c_under_jobs_leaves_no_process(self, tmp_path):
        """Regression: SIGINT to the process group of a --jobs 2 batch
        used to leave the parent joining workers blocked on their pipes
        forever.  The run must exit and take its workers with it."""
        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _SLOW_BATCH],
            cwd=tmp_path,
            env=env,
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while len(_group_members(proc.pid)) < 3:  # parent + 2 workers
                assert proc.poll() is None, "batch exited before its workers"
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            proc.wait(timeout=20.0)
            assert _group_members(proc.pid) == []
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()

    def test_cache_flag_roundtrip(self, scratch, tmp_path, monkeypatch,
                                  capsys):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        mark = tmp_path / "m.log"
        scratch("zz_cc", _MarkingRunner(mark))
        args = ["zz_cc", "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        assert main(args) == 0
        assert _runs(mark) == 1
        assert "(cache hit)" in capsys.readouterr().out
        # --no-cache forces a re-run
        assert main([*args, "--no-cache"]) == 0
        assert _runs(mark) == 2


# ---------------------------------------------------------------------------
class TestShardedHarness:
    def test_pool_invariance_and_identity(self):
        from repro.distributions import ExponentialLengths
        from repro.rngutil import seedseq_for
        from repro.synthetic import SyntheticHarness

        dist = ExponentialLengths(500.0)
        harness = SyntheticHarness(2000.0, 500.0)
        serial = harness.run(dist, 4000, seedseq_for(3, "t"), n_shards=4)
        pooled = harness.run(
            dist, 4000, seedseq_for(3, "t"), n_shards=4,
            pool=SupervisedPool(2),
        )
        for label, acc in serial.stats.items():
            assert pooled.stats[label].mean == acc.mean  # bit-equal
            assert pooled.stats[label].sem == acc.sem

    def test_live_generator_rejected_for_sharding(self, rng):
        from repro.distributions import ExponentialLengths
        from repro.synthetic import SyntheticHarness

        harness = SyntheticHarness(2000.0, 500.0)
        with pytest.raises(InvalidParameterError, match="SeedSequence"):
            harness.run(
                ExponentialLengths(500.0), 1000, rng, n_shards=4
            )
