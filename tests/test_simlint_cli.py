"""The ``python -m repro lint`` CLI: exit codes, selection, the
suppression report, and the acceptance gate — the repaired tree lints
clean while a seeded violation exits non-zero with file:line:rule
output."""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def violation_tree(tmp_path):
    """A fake package tree with an import-time clock read (FLOW001)
    and a set iteration (ORD001) in a simulation-critical directory."""
    pkg = tmp_path / "htm"
    pkg.mkdir()
    (pkg / "bad.py").write_text(
        "import time\n"
        "x = time.time()\n"
        "for x in {1, 2}:\n"
        "    consume(x)\n"
    )
    return tmp_path


class TestLintCli:
    def test_repaired_tree_is_clean(self, capsys):
        assert lint_main([str(REPO_SRC)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "0 findings" in out

    def test_dispatch_through_repro_cli(self, capsys):
        assert repro_main(["lint", str(REPO_SRC)]) == 0
        assert "simlint" in capsys.readouterr().out

    def test_seeded_violation_exits_nonzero(self, violation_tree, capsys):
        rc = lint_main([str(violation_tree)])
        assert rc == 1
        out = capsys.readouterr().out
        # file:line:col: RULE message
        assert "bad.py:2:1: FLOW001" in out
        assert "bad.py:3:10: ORD001" in out

    def test_select_limits_rules(self, violation_tree, capsys):
        assert lint_main([str(violation_tree), "--select", "ORD"]) == 1
        out = capsys.readouterr().out
        assert "ORD001" in out and "FLOW001" not in out

    def test_ignore_all_relevant_rules_passes(self, violation_tree):
        rc = lint_main(
            [str(violation_tree), "--ignore", "FLOW,ORD001"]
        )
        assert rc == 0

    def test_removed_options_are_usage_errors(self, violation_tree, capsys):
        for option in ("--format=json", "--baseline=b.json", "--write-baseline"):
            with pytest.raises(SystemExit) as exc:
                lint_main([str(violation_tree), option])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_rule_is_usage_error(self, violation_tree, capsys):
        assert lint_main([str(violation_tree), "--select", "XYZ9"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("FLOW001", "ORD001", "ERR001", "API001", "POL001"):
            assert family in out

    def test_show_suppressed_lists_justifications(self, capsys):
        assert lint_main([str(REPO_SRC), "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out and "2 suppressed" in out
        # the worker's send boundary, and the chaos harness's damage to
        # a cache entry (a site pragma on the write), at any line
        assert re.search(
            r"repro/parallel/supervisor\.py:\d+: ERR002 -- unpicklable "
            r"payload or vanished parent", out
        )
        assert re.search(
            r"repro/faults/chaos\.py:\d+: FLOW005 -- chaos-harness artifact "
            r"damage", out
        )
