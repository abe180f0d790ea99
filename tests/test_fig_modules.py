"""Unit tests for the figure/experiment helper modules and report
internals that the registry-level tests don't reach."""

from __future__ import annotations

import functools
import math

import pytest

from repro.errors import InvalidParameterError
from repro.experiments import fig2, fig3
from repro.experiments.report import _fmt, ascii_bars, render_series, render_table
from repro.htm import MachineParams, NoDelay, TunedDelay
from repro.workloads import StackWorkload, TxAppWorkload


class TestFig3Helpers:
    def test_policy_factory_known(self):
        params = MachineParams()
        workload = StackWorkload()
        for name in fig3.FIG3_POLICIES:
            factory = fig3._policy_factory(name, workload, params)
            assert factory(0).name == name

    def test_policy_factory_extensions(self):
        params = MachineParams()
        workload = StackWorkload()
        for name in ("DELAY_RA", "DELAY_HYBRID", "GREEDY_CM"):
            factory = fig3._policy_factory(name, workload, params)
            assert factory(0).name == name

    def test_policy_factory_unknown(self):
        factory = fig3._policy_factory("DELAY_MAGIC", StackWorkload(), MachineParams())
        with pytest.raises(InvalidParameterError, match="unknown conflict policy"):
            factory(0)

    def test_tuned_factory_uses_workload(self):
        params = MachineParams()
        workload = StackWorkload()
        factory = fig3._policy_factory("DELAY_TUNED", workload, params)
        policy = factory(0)
        assert isinstance(policy, TunedDelay)
        assert policy.tuned_cycles == workload.tuned_delay_cycles(params)

    def test_run_fig3_minimal(self):
        rows = fig3.run_fig3(
            lambda: StackWorkload(),
            threads=(2,),
            policies=("NO_DELAY",),
            horizon=20_000.0,
            seed=1,
        )
        assert len(rows) == 1
        assert rows[0]["threads"] == 2
        assert rows[0]["ops"] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lone_core_cell_runs_once_per_repeat(self, jobs, tmp_path, monkeypatch):
        """threads=(1, 4) over the four Figure 3 policies is 1 + 4
        machine runs per repeat, inline and on a pool: a lone core is
        never probed, so every policy's 1-thread row folds one run."""
        from repro.htm import Machine
        from repro.parallel import SupervisedPool

        log = tmp_path / "runs"
        run = Machine.run

        def counted(machine, *args, **kwargs):
            with open(log, "a") as fh:  # forked workers append here too
                fh.write(f"{machine.params.n_cores}\n")
            return run(machine, *args, **kwargs)

        monkeypatch.setattr(Machine, "run", counted)
        factory = functools.partial(TxAppWorkload, work_cycles=100)
        rows = fig3.run_fig3(
            factory,
            threads=(1, 4),
            horizon=8_000.0,
            seed=5,
            repeats=2,
            pool=None if jobs == 1 else SupervisedPool(jobs),
        )
        assert sorted(log.read_text().split()) == ["1"] * 2 + ["4"] * 8
        lone = [row for row in rows if row["threads"] == 1]
        assert [row["policy"] for row in lone] == list(fig3.FIG3_POLICIES)
        for row in lone:
            reps = [
                fig3._rep_worker(factory, 1, row["policy"], 8_000.0, 5, True, rep)
                for rep in range(2)
            ]
            assert row == fig3._merge_cell(1, row["policy"], reps)

    def test_fig3_thread_axis(self):
        assert fig3.FIG3_THREADS[0] == 1
        assert fig3.FIG3_THREADS[-1] == 18


class TestFig2Helpers:
    def test_distribution_order(self):
        assert fig2.FIG2_DISTRIBUTIONS == (
            "geometric",
            "normal",
            "uniform",
            "exponential",
            "poisson",
        )

    def test_fig2c_custom_B(self):
        rows = fig2.run_fig2c(trials=2_000, seed=1, B=100.0)
        det = next(r for r in rows if r["policy"] == "DET")
        assert det["vs_OPT"] == pytest.approx(3.0, rel=0.05)


class TestReportInternals:
    def test_fmt_branches(self):
        assert _fmt(True) == "yes"
        assert _fmt(False) == "no"
        assert _fmt(0.0) == "0"
        assert _fmt(1234567.0) == "1.235e+06"
        assert _fmt(0.0001234) == "1.234e-04"
        assert _fmt(3.14159) == "3.142"
        assert _fmt("text") == "text"
        assert _fmt(42) == "42"

    def test_render_table_missing_cells_blank(self):
        text = render_table([{"a": 1}, {"b": 2}])
        lines = text.splitlines()
        # first data row has an empty b column
        assert lines[2].rstrip().endswith("1") or "1" in lines[2]

    def test_ascii_bars_zero_values(self):
        text = ascii_bars(["x", "y"], [0.0, 0.0])
        assert "x" in text

    def test_ascii_bars_mismatched_inputs(self):
        assert ascii_bars(["x"], [1.0, 2.0]) == ""

    def test_render_series_titles(self):
        text = render_series("n", [1], {"s": [2.0]}, title="T")
        assert text.startswith("T")


class TestRegimesExperiment:
    def test_shape(self):
        from repro.experiments import run_experiment

        result = run_experiment("ext_regimes", quick=True, seed=4)
        assert [r["B/mu"] for r in result.rows] == [0.5, 2.0, 8.0]
        # low B/mu: RA family wins; high B/mu: DET wins
        assert result.rows[0]["best"].startswith("RRA")
        assert result.rows[-1]["best"] == "DET"
        # DET cost improves monotonically with B/mu
        dets = [r["DET"] for r in result.rows]
        assert dets == sorted(dets, reverse=True)

    def test_constrained_detach_in_regime(self):
        from repro.experiments import run_experiment

        result = run_experiment("ext_regimes", quick=True, seed=4)
        high = result.rows[-1]  # B/mu = 8: well inside the mean regime
        assert high["RRW(mu)"] < high["RRW"]
        assert high["RRA(mu)"] < high["RRA"]
