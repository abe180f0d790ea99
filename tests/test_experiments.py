"""Tests for the experiment registry, runners, and report rendering."""

from __future__ import annotations

import inspect

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    EXPERIMENTS,
    render_result,
    render_series,
    render_table,
    run_experiment,
)
from repro.experiments.registry import _SPECS
from repro.experiments.report import ascii_bars

#: analytic experiments: they draw no randomness and take no seed
SEED_FREE = {
    "tab_ratios",
    "tab_abort_prob",
    "abl_delay_cap",
    "abl_hybrid",
    "abl_mean_error",
}

#: the HTM panels whose seed reaches ``run_fig3``
HTM_PANELS = (
    "fig3_stack",
    "fig3_queue",
    "fig3_txapp",
    "fig3_bimodal",
    "ext_bank",
    "ext_listset",
)


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        required = {
            "fig2a",
            "fig2b",
            "fig2c",
            "fig3_stack",
            "fig3_queue",
            "fig3_txapp",
            "fig3_bimodal",
            "tab_ratios",
            "tab_abort_prob",
            "cor1",
            "cor2",
        }
        assert required <= set(EXPERIMENTS)

    def test_ablations_present(self):
        assert {
            "abl_delay_cap",
            "abl_hybrid",
            "abl_mean_error",
            "abl_wedge",
            "abl_backoff",
        } <= set(EXPERIMENTS)

    def test_unknown_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")

    def test_every_randomized_runner_takes_seed(self):
        seedless = {
            exp_id
            for exp_id, spec in _SPECS.items()
            if "seed" not in inspect.signature(spec.runner).parameters
        }
        assert seedless == SEED_FREE

    @pytest.mark.parametrize("exp_id", HTM_PANELS)
    def test_seed_reaches_htm_panel(self, exp_id):
        small = dict(threads=(4,), horizon=5_000.0)
        one = run_experiment(exp_id, quick=True, seed=1, **small)
        two = run_experiment(exp_id, quick=True, seed=2, **small)
        assert one.params["seed"] == 1
        assert one.rows != two.rows


class TestQuickRuns:
    def test_fig2a_quick(self):
        result = run_experiment("fig2a", quick=True, seed=1)
        assert len(result.rows) == 5 * 6  # 5 distributions x 6 policies
        dists = {r["distribution"] for r in result.rows}
        assert dists == {"geometric", "normal", "uniform", "exponential", "poisson"}

    def test_fig2b_shape_ra_beats_rw(self):
        result = run_experiment("fig2b", quick=True, seed=1)
        by = {(r["distribution"], r["policy"]): r["mean_cost"] for r in result.rows}
        assert by[("exponential", "RRA")] < by[("exponential", "RRW")]

    def test_fig2c_det_three_x(self):
        result = run_experiment("fig2c", quick=True, seed=1)
        det = next(r for r in result.rows if r["policy"] == "DET")
        assert det["vs_OPT"] == pytest.approx(3.0, rel=0.02)

    def test_tab_ratios_agreement(self):
        result = run_experiment("tab_ratios", quick=True)
        for row in result.rows:
            assert row["rel_err"] < 5e-3, row

    def test_tab_abort_prob(self):
        result = run_experiment("tab_abort_prob", quick=True)
        assert all(r["RA_less_likely"] for r in result.rows)

    def test_cor1_bound(self):
        result = run_experiment("cor1", quick=True, seed=2)
        assert all(r["within"] for r in result.rows)

    def test_cor2_progress(self):
        result = run_experiment("cor2", quick=True, seed=2)
        assert all(r["holds_half"] for r in result.rows)

    def test_abl_delay_cap_optimum_at_one(self):
        result = run_experiment("abl_delay_cap", quick=True)
        for k in {r["k"] for r in result.rows}:
            rows = [r for r in result.rows if r["k"] == k]
            best = min(rows, key=lambda r: r["ratio"])
            assert best["cap_factor"] == 1.0

    def test_abl_hybrid_crossover(self):
        result = run_experiment("abl_hybrid", quick=True)
        picks = {r["k"]: r["hybrid_picks"] for r in result.rows}
        assert picks[2] == "requestor_aborts"
        assert picks[3] == "requestor_wins"

    def test_abl_mean_error_exact_best(self):
        result = run_experiment("abl_mean_error", quick=True)
        exact = next(r for r in result.rows if r["mu_hat/mu"] == 1.0)
        assert exact["achieved_ratio_at_true_mu"] <= 2.0

    def test_seed_reproducibility(self):
        a = run_experiment("fig2c", quick=True, seed=5)
        b = run_experiment("fig2c", quick=True, seed=5)
        assert a.rows == b.rows


@pytest.mark.slow
class TestHTMQuickRuns:
    def test_fig3_stack_quick(self):
        result = run_experiment("fig3_stack", quick=True, seed=1)
        threads = sorted({r["threads"] for r in result.rows})
        assert threads == [1, 4, 8]
        assert {r["policy"] for r in result.rows} == {
            "NO_DELAY",
            "DELAY_TUNED",
            "DELAY_DET",
            "DELAY_RAND",
        }
        for row in result.rows:
            assert row["ops_per_sec"] > 0

    def test_abl_wedge_quick(self):
        result = run_experiment("abl_wedge", quick=True, seed=1)
        assert len(result.rows) == 2

    def test_abl_backoff_quick(self):
        result = run_experiment("abl_backoff", quick=True, seed=1)
        assert all(r["median_attempts"] >= 1 for r in result.rows)


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(
            [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_table_ragged_rows(self):
        text = render_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([])

    def test_render_series(self):
        text = render_series(
            "n", [1, 2], {"x": [10.0, 20.0], "y": [1.0, 2.0]}
        )
        assert "n" in text and "x" in text and "y" in text

    def test_ascii_bars(self):
        text = ascii_bars(["a", "bb"], [1.0, 2.0])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") > lines[0].count("#")

    def test_render_result(self):
        result = run_experiment("tab_abort_prob", quick=True)
        text = render_result(result)
        assert "tab_abort_prob" in text
        assert "notes:" in text


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out

    def test_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["nope"]) == 2

    def test_run_and_write(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["tab_abort_prob", "--quick", "--out", str(tmp_path), "--seed", "1"]
        )
        assert code == 0
        assert (tmp_path / "tab_abort_prob.txt").exists()
        assert "P_abort_RW" in capsys.readouterr().out
