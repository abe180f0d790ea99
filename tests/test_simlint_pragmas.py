"""Pragma-parsing contract: multi-rule disables, whitespace
tolerance, and PRG001 hygiene findings for unknown/malformed
pragmas.  ``# simlint: disable=RULE[,RULE] -- reason`` is the only
suppression form."""

from __future__ import annotations

from repro.analysis.engine import lint_sources

SIM = "src/repro/sim/fixture.py"


def hits(result, rule):
    return [f for f in result.findings if f.rule == rule]


class TestMultiRuleDisable:
    def test_two_rules_one_pragma(self):
        src = (
            "import time\n\n\n"
            "def f(path):\n"
            "    return time.time(), open(path, 'w')"
            "  # simlint: disable=FLOW001,FLOW005 -- both sanctioned\n"
        )
        result = lint_sources({SIM: src})
        assert hits(result, "FLOW001") == []
        assert hits(result, "FLOW005") == []
        assert len(result.suppressed) == 2
        assert all(
            s.reason == "both sanctioned" for s in result.suppressed
        )

    def test_spaces_around_equals_and_commas(self):
        src = (
            "import time\n\n\n"
            "def f(path):\n"
            "    return time.time(), open(path, 'w')"
            "  # simlint: disable = FLOW001 , FLOW005 -- spaced\n"
        )
        result = lint_sources({SIM: src})
        assert hits(result, "FLOW001") == []
        assert hits(result, "FLOW005") == []
        assert hits(result, "PRG001") == []

    def test_partial_disable_leaves_other_rule(self):
        src = (
            "import time\n\n\n"
            "def f(path):\n"
            "    return time.time(), open(path, 'w')"
            "  # simlint: disable=FLOW001 -- clock only\n"
        )
        result = lint_sources({SIM: src})
        assert hits(result, "FLOW001") == []
        (flow5,) = hits(result, "FLOW005")
        assert flow5.line == 4  # anchored at the entry's def


class TestPragmaHygiene:
    def test_unknown_rule_id_warns(self):
        src = (
            "import time\n\n\n"
            "def f():\n"
            "    return time.time()  # simlint: disable=NOPE999 -- typo\n"
        )
        result = lint_sources({SIM: src})
        (finding,) = hits(result, "PRG001")
        assert "NOPE999" in finding.message
        # and the typo'd pragma suppressed nothing
        assert len(hits(result, "FLOW001")) == 1

    def test_family_prefix_is_not_a_rule_id(self):
        src = (
            "import time\n\n\n"
            "def f():\n"
            "    return time.time()  # simlint: disable=FLOW -- family\n"
        )
        result = lint_sources({SIM: src})
        (finding,) = hits(result, "PRG001")
        assert "'FLOW'" in finding.message
        assert len(hits(result, "FLOW001")) == 1

    def test_malformed_pragma_no_longer_blanket_suppresses(self):
        """``disable FLOW001`` (no ``=``) used to parse as a blanket
        disable and silently suppress everything on the line."""
        src = (
            "import time\n\n\n"
            "def f():\n"
            "    return time.time()  # simlint: disable FLOW001 -- oops\n"
        )
        result = lint_sources({SIM: src})
        assert len(hits(result, "PRG001")) == 1
        assert len(hits(result, "FLOW001")) == 1
        assert result.suppressed == []

    def test_blanket_disable_is_malformed(self):
        """Every suppression names its rules: a bare ``disable`` is a
        PRG001 finding and suppresses nothing."""
        src = (
            "import time\n\n\n"
            "def f():\n"
            "    return time.time()  # simlint: disable -- audited\n"
        )
        result = lint_sources({SIM: src})
        assert len(hits(result, "PRG001")) == 1
        assert len(hits(result, "FLOW001")) == 1
        assert result.suppressed == []

    def test_retired_rule_id_warns(self):
        src = (
            "import random\n\n\n"
            "def f():\n"
            "    return random.random()  # simlint: disable=FLOW002 -- old\n"
        )
        result = lint_sources({SIM: src})
        (finding,) = result.findings
        assert finding.rule == "PRG001"
        assert "'FLOW002'" in finding.message

    def test_docstring_mention_is_not_a_pragma(self):
        src = (
            '"""Docs: write ``# simlint: disable=FLOW001 -- why`` '
            'or even # simlint: disable junk here."""\n\n\n'
            "def f(n):\n"
            "    return n\n"
        )
        result = lint_sources({SIM: src})
        assert result.findings == []

    def test_prg_is_selectable(self):
        src = (
            "import time\n\n\n"
            "def f():\n"
            "    return time.time()  # simlint: disable=NOPE999\n"
        )
        result = lint_sources({SIM: src}, select=["PRG"])
        assert [f.rule for f in result.findings] == ["PRG001"]
