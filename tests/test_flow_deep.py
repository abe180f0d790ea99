"""Acceptance pins for the FLOW rules: the purity analysis detects a
sim-critical entry reaching ``time.time()`` / ambient ``np.random``
through >= 2 intermediate same- and cross-module calls and prints the
full chain; the seed-provenance analysis catches ambient, laundered,
shared and captured generators while passing clean ones; and the
pass reports the shapes a per-line check cannot see."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    render_baseline,
)
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

    def test_ambient_numpy_cross_module(self):
        result = deep("transitive")
        (f,) = [x for x in result.flow if x["rule"] == "FLOW002"]
        assert f["entry"] == "core.policy:draw"
        assert f["chain"] == [
            "core.policy:draw", "util.rnd:noise", "util.rnd:_jitter",
        ]
        assert "numpy.random.rand()" in f["message"]

    def test_findings_anchor_at_entry_definition(self):
        result = deep("transitive")
        (f,) = [x for x in result.findings if x.rule == "FLOW001"]
        assert f.path.endswith("transitive/htm/engine.py")
        assert f.line == 7  # def step

    def test_clean_fixture_is_clean(self):
        result = deep("clean")
        assert result.ok
        assert result.flow == []


class TestSeedProvenance:
    def test_ambient_generator_creation(self):
        result = deep("seeds")
        hits = [
            f for f in result.flow
            if f["rule"] == "FLOW006" and f["entry"] == "sim.sampler:ambient"
        ]
        assert len(hits) == 1
        assert "without a seed" in hits[0]["message"]

    def test_laundered_generator_chain(self):
        result = deep("seeds")
        (f,) = [
            x for x in result.flow
            if x["rule"] == "FLOW006" and x["entry"] == "sim.sampler:draw"
        ]
        assert f["chain"] == ["sim.sampler:draw", "util.mkrng:fresh_rng"]
        assert "sim.sampler.draw -> util.mkrng.fresh_rng" in f["message"]

    def test_module_level_generator(self):
        result = deep("seeds")
        (f,) = [
            x for x in result.flow
            if x["rule"] == "FLOW007" and "_RNG" in x["message"]
        ]
        assert f["entry"] == "sim.sampler:<module>"

    def test_generator_captured_across_pool_boundary(self):
        result = deep("seeds")
        hits = [
            f for f in result.flow
            if f["rule"] == "FLOW007" and f["entry"] == "sim.shards:fan_out"
        ]
        assert len(hits) == 1
        assert "closure" in hits[0]["message"]

    def test_parameter_seeded_paths_pass(self):
        result = deep("seeds")
        entries = {f["entry"] for f in result.flow}
        assert "sim.sampler:clean" not in entries
        assert "sim.shards:fan_out_clean" not in entries
        assert "sim.shards:_shard_task" not in entries


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


class TestBaseline:
    def _sources(self):
        return {
            "sim/run.py": (
                "import time\n\n\n"
                "def loop(budget):\n"
                "    return time.monotonic() + budget\n"
            ),
        }

    def test_baselined_finding_is_accepted_and_surfaced(self):
        result = lint_sources(self._sources(), select=["FLOW"])
        entries = [
            {
                "rule": f["rule"],
                "entry": f["entry"],
                "site": f["site"]["detail"],
                "justification": "known wall-clock in fixture",
            }
            for f in result.flow
        ]
        again = lint_sources(
            self._sources(), select=["FLOW"],
            baseline_entries=entries,
        )
        assert again.ok
        assert len(again.baselined) == 1
        assert again.baselined[0]["justification"] == (
            "known wall-clock in fixture"
        )

    def test_fingerprint_is_line_independent(self):
        result = lint_sources(self._sources(), select=["FLOW"])
        raw = result.flow[0]
        shifted = dict(raw, line=raw["line"] + 10)
        assert fingerprint(raw) == fingerprint(shifted)

    def test_render_and_load_roundtrip(self, tmp_path):
        result = lint_sources(self._sources(), select=["FLOW"])
        path = tmp_path / "baseline.json"
        path.write_text(render_baseline(result.flow), encoding="utf-8")
        entries = load_baseline(path)
        kept, baselined = apply_baseline(result.flow, entries)
        assert kept == []
        assert len(baselined) == 1

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"entries": [{"rule": "FLOW001"}]}',
                        encoding="utf-8")
        try:
            load_baseline(path)
        except ValueError as exc:
            assert "missing" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


class TestRealTree:
    def test_src_deep_pass_is_clean_under_committed_baseline(self):
        repo = Path(__file__).resolve().parent.parent
        entries = load_baseline(repo / ".simlint-baseline.json")
        result = lint_paths(
            [repo / "src"], select=["FLOW"],
            baseline_entries=entries,
        )
        assert result.ok, [f.message for f in result.findings]
        # the chaos harness's cache-entry damage stays visible as the
        # one baselined item
        assert {b["entry"] for b in result.baselined} == {
            "repro.faults.chaos:corrupt_bytes",
        }
        # and no FLOW site needs an inline suppression
        assert result.suppressed == []


#: (id, path, source, rule, entry): shapes a per-line check cannot see —
#: import-time code, aliased imports and locals, a private helper reached
#: through a dict, and a pool worker outside the simulation dirs.
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
    ("aliased_numpy_reseed", "workloads/app.py",
     "import numpy as _np\n_np.random.seed(0)\n",
     "FLOW002", "app:<module>"),
    ("private_dict_dispatched_helper", "workloads/app.py",
     "import random\n\n\n"
     "def _jitter(x):\n    return x + random.random()\n\n\n"
     "_DISPATCH = {'jitter': _jitter}\n\n\n"
     "def apply(kind, x):\n    return _DISPATCH[kind](x)\n",
     "FLOW002", "app:_jitter"),
    ("unseeded_rng_in_experiment_worker", "experiments/regimes.py",
     "import numpy as np\n\n\n"
     "def _cell_worker(mu, seed):\n"
     "    return np.random.default_rng().exponential(mu)\n",
     "FLOW006", "regimes:_cell_worker"),
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
