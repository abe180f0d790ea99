"""Pragma-parsing contract: multi-rule disables, whitespace
tolerance, PRG001 hygiene findings for unknown/malformed pragmas, and
parallel lint determinism."""

from __future__ import annotations

from repro.analysis.engine import lint_sources
from repro.parallel import SupervisedPool

SIM = "src/repro/sim/fixture.py"


def hits(result, rule):
    return [f for f in result.findings if f.rule == rule]


class TestMultiRuleDisable:
    def test_two_rules_one_pragma(self):
        src = (
            "import time\nimport numpy as np\n\n\n"
            "def f():\n"
            "    return time.time() + np.random.rand()"
            "  # simlint: disable=DET001,DET003 -- both sanctioned\n"
        )
        result = lint_sources({SIM: src})
        assert hits(result, "DET001") == []
        assert hits(result, "DET003") == []
        assert len(result.suppressed) == 2
        assert all(
            s.reason == "both sanctioned" for s in result.suppressed
        )

    def test_spaces_around_equals_and_commas(self):
        src = (
            "import time\nimport numpy as np\n\n\n"
            "def f():\n"
            "    return time.time() + np.random.rand()"
            "  # simlint: disable = DET001 , DET003 -- spaced\n"
        )
        result = lint_sources({SIM: src})
        assert hits(result, "DET001") == []
        assert hits(result, "DET003") == []
        assert hits(result, "PRG001") == []

    def test_partial_disable_leaves_other_rule(self):
        src = (
            "import time\nimport numpy as np\n\n\n"
            "def f():\n"
            "    return time.time() + np.random.rand()"
            "  # simlint: disable=DET001 -- clock only\n"
        )
        result = lint_sources({SIM: src})
        assert hits(result, "DET001") == []
        (det3,) = hits(result, "DET003")
        assert det3.line == 6


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
        assert len(hits(result, "DET001")) == 1

    def test_family_prefix_is_not_a_rule_id(self):
        src = (
            "import time\n\n\n"
            "def f():\n"
            "    return time.time()  # simlint: disable=DET -- family\n"
        )
        result = lint_sources({SIM: src})
        (finding,) = hits(result, "PRG001")
        assert "'DET'" in finding.message
        assert len(hits(result, "DET001")) == 1

    def test_malformed_pragma_no_longer_blanket_suppresses(self):
        """``disable DET001`` (no ``=``) used to parse as a blanket
        disable and silently suppress everything on the line."""
        src = (
            "import time\n\n\n"
            "def f():\n"
            "    return time.time()  # simlint: disable DET001 -- oops\n"
        )
        result = lint_sources({SIM: src})
        assert len(hits(result, "PRG001")) == 1
        assert len(hits(result, "DET001")) == 1
        assert result.suppressed == []

    def test_blanket_disable_still_works(self):
        src = (
            "import time\n\n\n"
            "def f():\n"
            "    return time.time()  # simlint: disable -- audited\n"
        )
        result = lint_sources({SIM: src})
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_docstring_mention_is_not_a_pragma(self):
        src = (
            '"""Docs: write ``# simlint: disable=DET001 -- why`` '
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


class TestParallelLint:
    def _sources(self):
        out = {}
        for i in range(6):
            out[f"src/repro/sim/mod_{i}.py"] = (
                "import time\nimport random\n\n\n"
                f"def f_{i}():\n"
                "    return time.time() + random.random()\n"
            )
        out[SIM] = (
            "import time\n\n\n"
            "def g():\n"
            "    return time.time()  # simlint: disable=DET001 -- ok\n"
        )
        return out

    def test_pool_matches_serial(self):
        serial = lint_sources(self._sources())
        parallel = lint_sources(self._sources(), pool=SupervisedPool(2))
        assert parallel.findings == serial.findings
        assert parallel.suppressed == serial.suppressed
        assert serial.findings  # the fixture actually finds things

    def test_serial_pool_path(self):
        result = lint_sources(self._sources(), pool=SupervisedPool(1))
        assert result.findings == lint_sources(self._sources()).findings
