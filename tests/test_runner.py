"""Hardened experiment runner: registration, watchdog, no in-process
retry, finishing a batch by rerunning it against the result cache, and
the CLI's --keep-going failure handling."""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.errors import (
    ExperimentError,
    ExperimentTimeoutError,
    SimulationError,
)
from repro.experiments import EXPERIMENTS, register_experiment, run_experiment
from repro.experiments import registry, scorecard
from repro.experiments.registry import _SPECS
from repro.experiments.report import render_failures
from repro.experiments.scorecard import run_scorecard
from repro.parallel import scan_cache_dir


@pytest.fixture
def scratch(monkeypatch):
    """Register throwaway experiments; deregister them afterwards."""
    registered: list[str] = []

    def _register(exp_id, runner, **kwargs):
        register_experiment(
            exp_id, f"test double {exp_id}", runner, **kwargs
        )
        registered.append(exp_id)
        return exp_id

    yield _register
    for exp_id in registered:
        _SPECS.pop(exp_id, None)
        EXPERIMENTS.pop(exp_id, None)


def _rows(**kw):
    return [{"x": 1}]


def _cache_args(tmp_path) -> list[str]:
    """CLI flags that turn the result cache on under ``tmp_path``."""
    return ["--cache", "--cache-dir", str(tmp_path / "cache")]


def _hang(**kw):  # killed only by the watchdog
    while True:
        time.sleep(0.02)


class TestRegistration:
    def test_register_and_run(self, scratch):
        exp_id = scratch("zz_double", _rows)
        assert exp_id in EXPERIMENTS
        result = run_experiment(exp_id)
        assert result.rows == [{"x": 1}]

    def test_shadowing_guard(self, scratch):
        scratch("zz_double", _rows)
        with pytest.raises(ExperimentError, match="already registered"):
            register_experiment("zz_double", "again", _rows)
        register_experiment(
            "zz_double", "again", lambda **kw: [{"x": 2}], replace=True
        )
        assert run_experiment("zz_double").rows == [{"x": 2}]

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("no_such_thing")


class TestRowStore:
    """``run_experiment`` keeps each id's last rows; only the scorecard
    grades from them."""

    @pytest.fixture(autouse=True)
    def empty_store(self, monkeypatch):
        monkeypatch.setattr(registry, "_LAST_ROWS", {})

    @staticmethod
    def grade_only(monkeypatch, exp_id, grader):
        monkeypatch.setattr(scorecard, "_GRADERS", {exp_id: grader})

    def test_top_level_calls_always_run(self, scratch):
        calls = []

        def counting(**kw):
            calls.append(1)
            return [{"call": len(calls)}]

        exp_id = scratch("zz_counted", counting)
        assert run_experiment(exp_id, quick=True).rows == [{"call": 1}]
        assert run_experiment(exp_id, quick=True).rows == [{"call": 2}]
        assert len(calls) == 2
        # kept, but never handed back to a top-level call
        assert registry._stored_rows(exp_id, quick=True, seed=None) == [
            {"call": 2}
        ]

    def test_replaced_runner_not_graded_from_predecessor(
        self, scratch, monkeypatch
    ):
        exp_id = scratch("zz_graded", lambda **kw: [{"ok": True}])
        self.grade_only(monkeypatch, exp_id, lambda rows: (rows[0]["ok"], ""))
        assert run_scorecard(quick=True)[0]["reproduced"] is True
        register_experiment(
            exp_id, "replacement", lambda **kw: [{"ok": False}], replace=True
        )
        assert registry._stored_rows(exp_id, quick=True, seed=None) is None
        assert run_scorecard(quick=True)[0]["reproduced"] is False

    def test_unserializable_rows_are_not_kept(self, scratch):
        exp_id = scratch("zz_opaque", lambda **kw: [{"x": object()}])
        run_experiment(exp_id)
        assert exp_id not in registry._LAST_ROWS

    def test_scorecard_recomputes_under_capture(self, monkeypatch):
        from repro.obs import capture

        self.grade_only(
            monkeypatch, "robustness", scorecard._GRADERS["robustness"]
        )
        run_experiment("robustness", quick=True)
        with capture() as cap:
            graded = run_scorecard(quick=True)
        # the capture holds the sub-run's machine counters
        assert cap.snapshot()["counters"].get("commits", 0) > 0

        def no_run(*args, **kwargs):
            raise AssertionError("the scorecard recomputed a kept artifact")

        # outside a capture the same grade comes from the kept rows
        monkeypatch.setattr(registry, "run_experiment", no_run)
        assert run_scorecard(quick=True) == graded


class TestWatchdog:
    def test_kills_hanging_experiment(self, scratch):
        exp_id = scratch("zz_hang", _hang)
        start = time.monotonic()
        with pytest.raises(ExperimentTimeoutError, match="wall-clock"):
            run_experiment(exp_id, timeout=0.2)
        assert time.monotonic() - start < 5.0

    def test_timeout_never_retried(self, scratch):
        calls = []

        def hang(**kw):
            calls.append(1)
            _hang()

        exp_id = scratch("zz_hang_retry", hang)
        with pytest.raises(ExperimentTimeoutError):
            run_experiment(exp_id, timeout=0.2)
        assert len(calls) == 1

    def test_fast_experiment_unaffected(self, scratch):
        exp_id = scratch("zz_fast", _rows)
        assert run_experiment(exp_id, timeout=30.0).rows == [{"x": 1}]


class TestRetries:
    """Nothing is retried in process: a runner is a pure function of its
    arguments and seed, so a second call would raise the same error."""

    def test_no_retries_by_default(self, scratch):
        calls = []

        def broken(**kw):
            calls.append(1)
            raise SimulationError("always")

        exp_id = scratch("zz_broken2", broken)
        with pytest.raises(SimulationError):
            run_experiment(exp_id)
        assert len(calls) == 1

    def test_retries_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig2a", "--quick", "--no-cache", "--retries", "1"])
        assert excinfo.value.code == 2
        assert "--retries" in capsys.readouterr().err

    def test_engine_raised_timeout_never_retried(self, scratch):
        """The watchdog contract (simlint ERR rules): a timeout raised
        from *inside* the experiment, not by SIGALRM, must propagate on
        the first attempt, like any other failure."""
        calls = []

        def deadline(**kw):
            calls.append(1)
            raise ExperimentTimeoutError("engine wall-clock deadline")

        exp_id = scratch("zz_engine_to", deadline)
        with pytest.raises(ExperimentTimeoutError):
            run_experiment(exp_id)
        assert len(calls) == 1

    def test_keyboard_interrupt_propagates_unretried(self, scratch):
        """Ctrl-C is never swallowed or retried by the runner."""
        calls = []

        def interrupted(**kw):
            calls.append(1)
            raise KeyboardInterrupt

        exp_id = scratch("zz_intr", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(exp_id)
        assert len(calls) == 1


class TestCli:
    def test_keep_going_collects_failures(self, scratch, capsys):
        def broken(**kw):
            raise SimulationError("injected failure")

        bad = scratch("zz_bad", broken)
        good = scratch("zz_good", _rows)
        rc = main([bad, good, "--keep-going"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert f"[{good} completed" in out  # kept going past the failure
        assert "1 experiment(s) FAILED" in err
        assert "SimulationError: injected failure" in err

    def test_first_failure_aborts_without_keep_going(self, scratch, capsys):
        def broken(**kw):
            raise SimulationError("boom")

        bad = scratch("zz_bad2", broken)
        good = scratch("zz_good2", _rows)
        rc = main([bad, good])
        out, err = capsys.readouterr()
        assert rc == 1
        assert f"[{good} completed" not in out  # never reached
        assert "FAILED" in err
        assert f"1 experiment(s) not started after failure: {good}" in err

    def test_unknown_id_exit_code(self, capsys):
        assert main(["zz_nope"]) == 2

    @pytest.mark.parametrize(
        "flags", [["--resume"], ["--checkpoint", "ck.json"]]
    )
    def test_journal_flags_rejected(self, flags, capsys):
        """A batch finishes by a rerun against its cache; the checkpoint
        journal's flags are argparse errors."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fig2a", "--quick", *flags])
        assert excinfo.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_checkpoint_and_resume(self, scratch, tmp_path, capsys):
        """The cache is the checkpoint and a rerun is the resume: the
        completed experiment is a hit, the failed one runs again."""
        calls = []

        def counted(**kw):
            calls.append(1)
            return [{"x": 1}]

        def broken(**kw):
            raise SimulationError("boom")

        good = scratch("zz_ck_good", counted)
        bad = scratch("zz_ck_bad", broken)
        args = [good, bad, "--keep-going", *_cache_args(tmp_path)]
        assert main(args) == 1
        assert len(calls) == 1
        capsys.readouterr()

        # the failed one is re-attempted (and fails again -> still exit 1)
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert len(calls) == 1  # not re-run
        assert f"[{good} completed in 0.0s (cache hit)]" in out
        assert f"[{bad} FAILED" in err

    def test_resume_after_fix_exits_clean(self, scratch, tmp_path):
        attempts = []

        def flaky_once(**kw):
            attempts.append(1)
            if len(attempts) == 1:
                raise SimulationError("first run dies")
            return [{"x": 1}]

        exp_id = scratch("zz_fix", flaky_once)
        args = [exp_id, "--keep-going", *_cache_args(tmp_path)]
        assert main(args) == 1  # failures are never cached
        assert main(args) == 0  # re-attempt succeeds and is stored
        assert main(args) == 0  # now a cache hit
        assert len(attempts) == 2

    def test_mismatched_checkpoint_ignored(self, scratch, tmp_path):
        calls = []

        def counted(**kw):
            calls.append(1)
            return [{"x": 1}]

        exp_id = scratch("zz_mismatch", counted)
        args = [exp_id, *_cache_args(tmp_path)]
        assert main(args) == 0
        assert len(calls) == 1
        # same cache, different seed: must not hit
        assert main([*args, "--seed", "9"]) == 0
        assert len(calls) == 2
        assert main([*args, "--seed", "9"]) == 0
        assert len(calls) == 2

    def test_corrupt_checkpoint_ignored(self, scratch, tmp_path):
        """A torn cache entry is a miss: the rerun recomputes the rows
        and replaces the entry with a verified one."""
        calls = []

        def counted(**kw):
            calls.append(1)
            return [{"x": 1}]

        exp_id = scratch("zz_corrupt", counted)
        args = [exp_id, *_cache_args(tmp_path)]
        assert main(args) == 0
        (entry,) = (tmp_path / "cache").glob(f"{exp_id}-*.json")
        entry.write_text("{not json")
        assert main(args) == 0
        assert len(calls) == 2
        assert [r.status for r in scan_cache_dir(tmp_path / "cache")] == ["ok"]

    def test_watchdog_with_keep_going_still_reports(self, scratch, capsys):
        """PR acceptance: a hanging experiment is killed by the
        watchdog while --keep-going lets the rest of the batch (here
        the real quick-mode robustness bench) complete and render."""
        hang = scratch("zz_hang_cli", _hang)
        rc = main(
            [hang, "robustness", "--quick", "--keep-going", "--timeout", "1"]
        )
        out, err = capsys.readouterr()
        assert rc == 1
        assert "ExperimentTimeoutError" in err
        assert "[robustness completed" in out  # batch survived the hang


class TestRenderFailures:
    def test_empty(self):
        assert "all experiments completed" in render_failures([])

    def test_rows(self):
        text = render_failures(
            [
                {
                    "exp_id": "fig9z",
                    "error_type": "SimulationError",
                    "error": "boom",
                }
            ]
        )
        assert "1 experiment(s) FAILED" in text
        assert "fig9z" in text and "boom" in text
