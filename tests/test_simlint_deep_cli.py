"""CLI surface of the FLOW rules: full call chains in the report."""

from __future__ import annotations

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
