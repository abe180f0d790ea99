"""Tests for the chain/throughput/sensitivity experiment runners and
the CLI's JSON output."""

from __future__ import annotations

import json

import pytest

from repro.experiments import EXPERIMENTS, run_experiment


class TestExtChains:
    def test_crossover_shape(self):
        result = run_experiment("ext_chains", quick=True, seed=1)
        by = {
            (r["k"], r["strategy"]): r
            for r in result.rows
        }
        # RA wins at k=2
        assert (
            by[(2, "RA")]["mc_cost_vs_OPT"] < by[(2, "RW")]["mc_cost_vs_OPT"]
        )
        # RW wins at k=3+
        assert (
            by[(3, "RW")]["mc_cost_vs_OPT"] < by[(3, "RA")]["mc_cost_vs_OPT"]
        )

    def test_theory_numeric_mc_agree(self):
        result = run_experiment("ext_chains", quick=True, seed=1)
        for row in result.rows:
            if row["strategy"] in ("RW", "RA"):
                assert row["numeric_ratio"] == pytest.approx(
                    row["closed_ratio"], rel=5e-3
                )
                assert row["mc_cost_vs_OPT"] == pytest.approx(
                    row["closed_ratio"], rel=0.05
                )

    def test_hybrid_matches_mc_winner(self):
        result = run_experiment("ext_chains", quick=True, seed=1)
        for row in result.rows:
            if row["strategy"] == "HYBRID picks":
                assert row["pick"] == row["mc_winner"]


class TestAblSensitivity:
    def test_ordering_stable(self):
        result = run_experiment("abl_sensitivity", quick=True, seed=1)
        assert all(r["delay_wins"] for r in result.rows)


class TestRegistryCompleteness:
    def test_all_experiments_have_quick_mode(self):
        """Every registered experiment must run in quick mode (CI
        safety) — smoke only for non-HTM ones to keep this test fast."""
        fast_ids = [
            e
            for e in EXPERIMENTS
            if not e.startswith(("fig3", "ext_bank", "ext_listset", "abl_wedge",
                                 "abl_htm", "abl_sensitivity", "ext_throughput"))
        ]
        for exp_id in fast_ids:
            result = run_experiment(exp_id, quick=True, seed=3)
            assert result.rows, exp_id

    def test_experiment_count(self):
        # 11 paper artifacts + 7 ablations + 4 extensions
        assert len(EXPERIMENTS) >= 20


class TestScorecard:
    @pytest.mark.slow
    def test_all_claims_reproduce(self):
        result = run_experiment("scorecard", quick=True, seed=2018)
        total = result.rows[-1]
        assert total["artifact"] == "TOTAL"
        failures = [
            r["artifact"] for r in result.rows[:-1] if not r["reproduced"]
        ]
        assert not failures, f"claims not reproduced: {failures}"
        assert total["reproduced"] is True

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [None, 3])
    def test_warm_store_grades_like_cold(self, seed, monkeypatch):
        """The cold scorecard's own sub-runs fill the row store; the
        warm one grades every artifact from it and computes nothing."""
        from repro.experiments import registry
        from repro.experiments.scorecard import run_scorecard

        monkeypatch.setattr(registry, "_LAST_ROWS", {})
        cold = run_scorecard(quick=True, seed=seed)

        def no_run(*args, **kwargs):
            raise AssertionError("the warm scorecard recomputed an artifact")

        monkeypatch.setattr(registry, "run_experiment", no_run)
        assert run_scorecard(quick=True, seed=seed) == cold


class TestCliJson:
    def test_json_written(self, tmp_path):
        from repro.cli import main

        code = main(
            [
                "tab_abort_prob",
                "--quick",
                "--out",
                str(tmp_path),
                "--json",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "tab_abort_prob.json").read_text())
        assert payload["exp_id"] == "tab_abort_prob"
        assert payload["rows"]
        assert "P_abort_RW" in payload["rows"][0]

    def test_no_json_without_flag(self, tmp_path):
        from repro.cli import main

        main(["tab_abort_prob", "--quick", "--out", str(tmp_path)])
        assert not (tmp_path / "tab_abort_prob.json").exists()
