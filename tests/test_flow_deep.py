"""Acceptance pins for the FLOW rules: the purity analysis detects a
sim-critical entry reaching ``time.time()`` through >= 2 intermediate
same- and cross-module calls and prints the full chain, a pragma at
the effect's site stops it there, and the pass reports the shapes a
per-line check cannot see."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import lint_paths, lint_sources

FIXTURES = Path(__file__).parent / "fixtures" / "flow"


def deep(fixture: str, **kwargs):
    return lint_paths([FIXTURES / fixture], select=["FLOW"], **kwargs)


class TestPurityChains:
    def test_wall_clock_through_two_intermediates(self):
        result = deep("transitive")
        (f,) = [x for x in result.flow if x["rule"] == "FLOW001"]
        assert f["entry"] == "htm.engine:step"
        # >= 2 intermediates: one same-module, one cross-module
        assert f["chain"] == [
            "htm.engine:step",
            "htm.engine:_advance",
            "util.timeutil:read_clock",
            "util.timeutil:_now",
        ]
        assert f["site"]["detail"] == "time.time()"
        # the human-facing message prints the whole chain
        assert (
            "htm.engine.step -> htm.engine._advance -> "
            "util.timeutil.read_clock -> util.timeutil._now"
        ) in f["message"]

    def test_findings_anchor_at_entry_definition(self):
        result = deep("transitive")
        (f,) = [x for x in result.findings if x.rule == "FLOW001"]
        assert f.path.endswith("transitive/htm/engine.py")
        assert f.line == 7  # def step

    def test_clean_fixture_is_clean(self):
        result = deep("clean")
        assert result.ok
        assert result.flow == []


class TestPragmaHonoring:
    def test_site_level_suppression_stops_propagation(self):
        sources = {
            "sim/run.py": (
                "import time\n\n\n"
                "def loop(budget):\n"
                "    return _deadline(budget)\n\n\n"
                "def _deadline(budget):\n"
                "    return time.monotonic() + budget"
                "  # simlint: disable=FLOW001 -- watchdog\n"
            ),
        }
        result = lint_sources(sources, select=["FLOW"])
        assert result.ok
        assert result.flow == []
        # the sanctioned site stays auditable
        (sup,) = result.suppressed
        assert (sup.finding.path, sup.finding.line) == ("sim/run.py", 9)
        assert (sup.finding.rule, sup.reason) == ("FLOW001", "watchdog")

    def test_flow_id_suppresses_site_too(self):
        sources = {
            "sim/run.py": (
                "import time\n\n\n"
                "def loop(budget):\n"
                "    return time.monotonic() + budget"
                "  # simlint: disable=FLOW001 -- sanctioned\n"
            ),
        }
        result = lint_sources(sources, select=["FLOW"])
        assert result.ok

    def test_unsuppressed_site_still_found(self):
        sources = {
            "sim/run.py": (
                "import time\n\n\n"
                "def loop(budget):\n"
                "    return time.monotonic() + budget\n"
            ),
        }
        result = lint_sources(sources, select=["FLOW"])
        assert not result.ok
        assert result.findings[0].rule == "FLOW001"


class TestRealTree:
    def test_src_deep_pass_is_clean(self):
        repo = Path(__file__).resolve().parent.parent
        result = lint_paths([repo / "src"], select=["FLOW"])
        assert result.ok, [f.message for f in result.findings]
        # the chaos harness's cache-entry damage is the one sanctioned
        # FLOW site
        (sup,) = result.suppressed
        assert sup.finding.path.endswith("repro/faults/chaos.py")
        assert sup.finding.rule == "FLOW005"
        assert sup.reason.startswith("chaos-harness artifact damage")


#: (id, path, source, rule, entry): shapes a per-line check cannot see —
#: import-time code, aliased imports and locals, and a private helper
#: reached through a dict.
SHAPES = [
    ("import_time_read", "htm/clock.py",
     "import time\n_T0 = time.time()\n",
     "FLOW001", "clock:<module>"),
    ("aliased_time_module", "htm/clock.py",
     "import time as _t\n_T0 = _t.time()\n",
     "FLOW001", "clock:<module>"),
    ("aliased_time_in_function", "htm/clock.py",
     "import time as _t\n\n\ndef stamp():\n    return _t.time()\n",
     "FLOW001", "clock:stamp"),
    ("private_dict_dispatched_helper", "workloads/app.py",
     "import time\n\n\n"
     "def _stamp(x):\n    return x + time.time()\n\n\n"
     "_DISPATCH = {'stamp': _stamp}\n\n\n"
     "def apply(kind, x):\n    return _DISPATCH[kind](x)\n",
     "FLOW001", "app:_stamp"),
    ("local_alias_of_clock", "sim/engine.py",
     "import time\n\n\n"
     "def run(deadline):\n"
     "    monotonic = time.monotonic\n"
     "    return monotonic() >= deadline\n",
     "FLOW001", "engine:run"),
]


class TestOnePass:
    @pytest.mark.parametrize(
        "path,source,rule,entry", [case[1:] for case in SHAPES],
        ids=[case[0] for case in SHAPES],
    )
    def test_reports_shape(self, path, source, rule, entry):
        result = lint_sources({path: source}, select=["FLOW"])
        assert (rule, entry) in {(f["rule"], f["entry"]) for f in result.flow}
