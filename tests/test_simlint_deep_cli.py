"""CLI surface of the FLOW rules: full call chains in the report,
SARIF output, and the baseline workflow."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
TRANSITIVE = str(FIXTURES / "transitive")


def run(capsys, argv):
    code = lint_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDeepCli:
    def test_deep_prints_full_chain(self, capsys):
        code, out, _err = run(capsys, [TRANSITIVE, "--select", "FLOW"])
        assert code == 1
        assert (
            "htm.engine.step -> htm.engine._advance -> "
            "util.timeutil.read_clock -> util.timeutil._now"
        ) in out

    def test_shallow_run_has_no_flow_findings(self, capsys):
        code, out, _err = run(capsys, [TRANSITIVE, "--ignore", "FLOW"])
        assert code == 0
        assert "FLOW" not in out.partition("simlint:")[2]


class TestSarif:
    def test_sarif_structure(self, capsys):
        _code, out, _err = run(
            capsys, [TRANSITIVE, "--select", "FLOW", "--format", "sarif"]
        )
        doc = json.loads(out)
        assert doc["version"] == "2.1.0"
        (sarif_run,) = doc["runs"]
        assert sarif_run["tool"]["driver"]["name"] == "simlint"
        rule_ids = {r["id"] for r in sarif_run["tool"]["driver"]["rules"]}
        assert {"FLOW001", "FLOW006", "PRG001", "ORD001"} <= rule_ids
        levels = {r["ruleId"]: r["level"] for r in sarif_run["results"]}
        assert levels["FLOW001"] == "error"
        locs = sarif_run["results"][0]["locations"]
        assert locs[0]["physicalLocation"]["region"]["startLine"] >= 1

    def test_sarif_carries_baselined_as_suppressed(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        argv = [TRANSITIVE, "--select", "FLOW", "--baseline", str(baseline)]
        code, _out, _err = run(capsys, argv + ["--write-baseline"])
        assert code == 0
        code, out, _err = run(capsys, argv + ["--format", "sarif"])
        assert code == 0  # everything baselined
        doc = json.loads(out)
        results = doc["runs"][0]["results"]
        assert results, "baselined findings must stay visible"
        assert all(r["level"] == "note" for r in results)
        assert all("suppressions" in r for r in results)


class TestBaselineWorkflow:
    def test_write_then_accept(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        argv = [TRANSITIVE, "--select", "FLOW", "--baseline", str(baseline)]
        code, _out, err = run(capsys, argv + ["--write-baseline"])
        assert code == 0
        assert "wrote 2 FLOW finding(s)" in err
        entries = json.loads(baseline.read_text(encoding="utf-8"))
        assert len(entries["entries"]) == 2
        code, out, _err = run(capsys, argv)
        assert code == 0
        assert "2 baselined" in out

    def test_malformed_baseline_is_usage_error(self, capsys, tmp_path):
        baseline = tmp_path / "bad.json"
        baseline.write_text("[]", encoding="utf-8")
        code, _out, err = run(
            capsys, [TRANSITIVE, "--baseline", str(baseline)]
        )
        assert code == 2
        assert "simlint: error" in err
