"""simlint rule fixtures: for every rule family a snippet that must
trigger it, a snippet that must pass clean, and a suppression check.

Paths matter: the FLOW rules report sim-critical code (sim/htm/core/
workloads/adversary/faults/distributions/experiments/synthetic), and
OBS applies only under the simulation dirs, so fixtures use
``src/repro/htm/...`` paths to opt in and ``src/repro/serve/...`` to
opt out.  ORD, ERR, API, POL and PRG apply to every linted file.  FLOW
runs on every lint, so tests of the other families select their own
family.
"""

from __future__ import annotations

import re

import pytest

from repro.analysis import lint_sources
from repro.analysis.cli import main as lint_main

SIM_PATH = "src/repro/htm/fixture.py"
UNSCOPED_PATH = "src/repro/serve/fixture.py"


def hits(source, path=SIM_PATH, select=None, **extra_sources):
    sources = {path: source, **extra_sources}
    return [f.rule for f in lint_sources(sources, select=select).findings]


def suppressed(source, path=SIM_PATH, select=None):
    return lint_sources({path: source}, select=select).suppressed


# ---------------------------------------------------------------------------
# FLOW001 — wall clock
# ---------------------------------------------------------------------------
class TestWallClock:
    def test_time_call_flagged_in_sim_code(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert hits(src) == ["FLOW001"]

    def test_monotonic_and_from_import_flagged(self):
        src = (
            "from time import monotonic as mono\n"
            "def f():\n"
            "    return mono()\n"
        )
        assert hits(src) == ["FLOW001"]

    def test_datetime_now_flagged(self):
        src = (
            "import datetime\n"
            "def f():\n"
            "    return datetime.datetime.now()\n"
        )
        assert hits(src) == ["FLOW001"]

    def test_unscoped_file_not_flagged(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert hits(src, path=UNSCOPED_PATH) == []

    def test_sim_clock_clean(self):
        src = "def f(sim):\n    return sim.now\n"
        assert hits(src) == []

    def test_suppression_with_justification(self):
        src = (
            "import time\n"
            "def f(budget):\n"
            "    return time.monotonic() + budget  "
            "# simlint: disable=FLOW001 -- watchdog deadline\n"
        )
        assert hits(src) == []
        (sup,) = suppressed(src)
        assert sup.finding.rule == "FLOW001"
        assert sup.finding.line == 3
        assert sup.reason == "watchdog deadline"


# ---------------------------------------------------------------------------
# ORD001 / ORD002 — unordered iteration
# ---------------------------------------------------------------------------
#: A sim/ entry whose helper in util/ iterates a set-typed local, pops a
#: set and comprehends over set(...).
ORD_PROBE_TREE = {
    "sim/__init__.py": "",
    "sim/step.py": (
        "from util.order import drain\n\n\n"
        "def step(items):\n"
        "    return drain(items)\n"
    ),
    "util/__init__.py": "",
    "util/order.py": (
        "def drain(items):\n"
        "    pending = set(items)\n"
        "    for item in pending:\n"
        "        consume(item)\n"
        "    first = pending.pop()\n"
        "    return first, [x for x in set(items)]\n"
    ),
}


class TestOrdering:
    def test_for_over_set_literal_flagged(self):
        src = "for x in {1, 2, 3}:\n    consume(x)\n"
        assert hits(src, select=["ORD"]) == ["ORD001"]

    def test_for_over_set_local_flagged(self):
        src = "s = set([3, 1])\nfor x in s:\n    consume(x)\n"
        assert hits(src, select=["ORD"]) == ["ORD001"]

    def test_comprehension_over_set_flagged(self):
        src = "s = {1, 2}\nout = [x + 1 for x in s]\n"
        assert hits(src, select=["ORD"]) == ["ORD001"]

    def test_sum_over_set_flagged(self):
        src = "s = {1.5, 2.5}\ntotal = sum(s)\n"
        assert hits(src, select=["ORD"]) == ["ORD001"]

    def test_annotated_return_tracked_across_call(self):
        src = (
            "def holders() -> set[int]:\n"
            "    return {1, 2}\n"
            "def f():\n"
            "    for h in holders():\n"
            "        consume(h)\n"
        )
        assert hits(src, select=["ORD"]) == ["ORD001"]

    def test_sorted_iteration_clean(self):
        src = "s = {1, 2}\nfor x in sorted(s):\n    consume(x)\n"
        assert hits(src, select=["ORD"]) == []

    def test_membership_and_len_clean(self):
        src = (
            "s = {1, 2}\n"
            "ok = 1 in s\n"
            "n = len(s)\n"
            "m = min(s)\n"
        )
        assert hits(src, select=["ORD"]) == []

    def test_list_iteration_clean(self):
        src = "xs = [1, 2]\nfor x in xs:\n    consume(x)\n"
        assert hits(src, select=["ORD"]) == []

    def test_set_pop_flagged(self):
        src = "s = {1, 2}\ns.pop()\n"
        assert hits(src, select=["ORD"]) == ["ORD002"]

    def test_list_pop_clean(self):
        src = "xs = [1, 2]\nxs.pop()\n"
        assert hits(src, select=["ORD"]) == []

    def test_suppression(self):
        src = (
            "s = {1, 2}\n"
            "for x in s:  # simlint: disable=ORD001 -- order-free fold\n"
            "    consume(x)\n"
        )
        assert hits(src, select=["ORD"]) == []

    def test_reassignment_clears_tracking(self):
        src = "s = {1, 2}\ns = [1, 2]\nfor x in s:\n    consume(x)\n"
        assert hits(src, select=["ORD"]) == []

    def test_helper_outside_simulation_dirs_flagged(self, tmp_path, capsys):
        """ORD runs on every linted file, so a sim entry's helper in
        util/ (outside SCOPED_DIRS) is covered in all three set forms:
        a set-typed local, set.pop() and a comprehension over set()."""
        for rel, text in ORD_PROBE_TREE.items():
            path = tmp_path / rel
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
        assert lint_main([str(tmp_path)]) == 1
        found = [
            match.group(1)
            for line in capsys.readouterr().out.splitlines()
            if (match := re.match(r"\S+:\d+:\d+: (ORD\d+) ", line))
        ]
        assert sorted(found) == ["ORD001", "ORD001", "ORD002"]


# ---------------------------------------------------------------------------
# ERR001/002/003 — exception handling
# ---------------------------------------------------------------------------
class TestExcepts:
    def test_bare_except_flagged(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        assert hits(src, select=["ERR"]) == ["ERR001"]

    def test_broad_except_flagged(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert hits(src, select=["ERR"]) == ["ERR002"]

    def test_broad_except_with_reraise_clean(self):
        src = "try:\n    f()\nexcept Exception:\n    log()\n    raise\n"
        assert hits(src, select=["ERR"]) == []

    def test_guarded_broad_except_clean(self):
        src = (
            "try:\n"
            "    f()\n"
            "except ExperimentTimeoutError:\n"
            "    raise\n"
            "except Exception as exc:\n"
            "    record(exc)\n"
        )
        assert hits(src, select=["ERR"]) == []

    def test_narrow_except_clean(self):
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert hits(src, select=["ERR"]) == []

    def test_swallowed_timeout_flagged(self):
        src = (
            "try:\n"
            "    f()\n"
            "except ExperimentTimeoutError:\n"
            "    pass\n"
        )
        assert hits(src, select=["ERR"]) == ["ERR003"]

    def test_swallowed_interrupt_in_tuple_flagged(self):
        src = (
            "try:\n"
            "    f()\n"
            "except (ValueError, KeyboardInterrupt):\n"
            "    pass\n"
        )
        assert hits(src, select=["ERR"]) == ["ERR003"]

    def test_suppression(self):
        src = (
            "try:\n"
            "    f()\n"
            "except Exception:  "
            "# simlint: disable=ERR002 -- top-level report boundary\n"
            "    pass\n"
        )
        assert hits(src, select=["ERR"]) == []


# ---------------------------------------------------------------------------
# ERR004 — non-atomic artifact writes
# ---------------------------------------------------------------------------
class TestAtomicArtifactWrite:
    def test_truncating_open_of_checkpoint_flagged(self):
        src = (
            "def save(checkpoint_path, text):\n"
            '    with open(checkpoint_path, "w") as fh:\n'
            "        fh.write(text)\n"
        )
        assert hits(src, select=["ERR"]) == ["ERR004"]

    def test_mode_keyword_flagged(self):
        src = (
            "def save(ckpt, blob):\n"
            '    with open(ckpt, mode="wb") as fh:\n'
            "        fh.write(blob)\n"
        )
        assert hits(src, select=["ERR"]) == ["ERR004"]

    def test_write_text_on_cache_entry_flagged(self):
        src = (
            "def save(cache_entry, text):\n"
            "    cache_entry.write_text(text)\n"
        )
        assert hits(src, select=["ERR"]) == ["ERR004"]

    def test_append_mode_clean(self):
        src = (
            "def save(journal_path, line):\n"
            '    with open(journal_path, "a") as fh:\n'
            "        fh.write(line)\n"
        )
        assert hits(src, select=["ERR"]) == []

    def test_read_mode_clean(self):
        src = (
            "def load(checkpoint_path):\n"
            "    with open(checkpoint_path) as fh:\n"
            "        return fh.read()\n"
        )
        assert hits(src, select=["ERR"]) == []

    def test_non_artifact_write_clean(self):
        src = (
            "def save(report_path, text):\n"
            '    with open(report_path, "w") as fh:\n'
            "        fh.write(text)\n"
        )
        assert hits(src, select=["ERR"]) == []

    def test_suppression_with_justification(self):
        src = (
            "def save(ckpt, text):\n"
            "    ckpt.write_text(text)  "
            "# simlint: disable=ERR004 -- torn-write test fixture\n"
        )
        assert hits(src, select=["ERR"]) == []
        (sup,) = suppressed(src, select=["ERR"])
        assert sup.finding.rule == "ERR004"
        assert sup.reason == "torn-write test fixture"


# ---------------------------------------------------------------------------
# API001/002 — interface hygiene
# ---------------------------------------------------------------------------
class TestApi:
    def test_mutable_default_flagged(self):
        assert hits("def f(x=[]):\n    pass\n", select=["API"]) == ["API001"]

    def test_dict_call_default_flagged(self):
        assert hits("def f(x=dict()):\n    pass\n", select=["API"]) == ["API001"]

    def test_kwonly_mutable_default_flagged(self):
        assert hits("def f(*, x={}):\n    pass\n", select=["API"]) == ["API001"]

    def test_none_default_clean(self):
        assert hits("def f(x=None):\n    pass\n", select=["API"]) == []

    def test_tuple_default_clean(self):
        assert hits("def f(x=(1, 2)):\n    pass\n", select=["API"]) == []

    def test_setattr_outside_ctor_flagged(self):
        src = (
            "class C:\n"
            "    def poke(self):\n"
            "        object.__setattr__(self, 'x', 1)\n"
        )
        assert hits(src, select=["API"]) == ["API002"]

    def test_setattr_in_post_init_clean(self):
        src = (
            "class C:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'x', 1)\n"
        )
        assert hits(src, select=["API"]) == []

    def test_suppression(self):
        src = (
            "class C:\n"
            "    def poke(self):\n"
            "        object.__setattr__(self, 'x', 1)  "
            "# simlint: disable=API002 -- cache rebuild\n"
        )
        assert hits(src, select=["API"]) == []


# ---------------------------------------------------------------------------
# POL — project contracts (cross-file)
# ---------------------------------------------------------------------------
POLICY_ROOT = "class CyclePolicy:\n    name = 'policy'\n"


class TestContracts:
    def test_policy_missing_decide_flagged(self):
        src = POLICY_ROOT + "class Bad(CyclePolicy):\n    name = 'BAD'\n"
        assert "POL001" in hits(src, select=["POL"])

    def test_policy_complete_clean(self):
        src = POLICY_ROOT + (
            "class Good(CyclePolicy):\n"
            "    name = 'GOOD'\n"
            "    def decide(self, ctx, rng):\n"
            "        return 0\n"
        )
        assert hits(src, select=["POL001", "POL002"]) == []

    def test_abstract_intermediate_exempt(self):
        src = POLICY_ROOT + (
            "import abc\n"
            "class Base(CyclePolicy):\n"
            "    @abc.abstractmethod\n"
            "    def helper(self):\n"
            "        ...\n"
        )
        assert hits(src, select=["POL"]) == []

    def test_policy_missing_name_flagged(self):
        src = POLICY_ROOT + (
            "class NoName(CyclePolicy):\n"
            "    def decide(self, ctx, rng):\n"
            "        return 0\n"
        )
        assert "POL002" in hits(src, select=["POL"])

    def test_workload_missing_protocol_flagged(self):
        src = (
            "class Workload:\n    name = 'workload'\n"
            "class Partial(Workload):\n"
            "    name = 'partial'\n"
            "    def setup(self, machine):\n"
            "        pass\n"
        )
        found = hits(src, select=["POL001"])
        assert found == ["POL001"]

    def test_unexported_workload_flagged(self):
        init_src = "__all__ = ['Registered']\n"
        wl_src = (
            "class Workload:\n    name = 'workload'\n"
            "class Hidden(Workload):\n"
            "    name = 'hidden'\n"
            "    def setup(self, m): pass\n"
            "    def next_op(self, c, rng): pass\n"
            "    def tuned_delay_cycles(self, p): pass\n"
        )
        result = lint_sources(
            {
                "src/repro/workloads/__init__.py": init_src,
                "src/repro/workloads/extra.py": wl_src,
            },
            select=["POL003"],
        )
        assert [f.rule for f in result.findings] == ["POL003"]
        assert "Hidden" in result.findings[0].message

    def test_unregistered_policy_name_flagged(self):
        src = POLICY_ROOT + (
            "class Orphan(CyclePolicy):\n"
            "    name = 'ORPHAN'\n"
            "    def decide(self, ctx, rng):\n"
            "        return 0\n"
            "def policy_from_name(name):\n"
            "    if name == 'OTHER':\n"
            "        return None\n"
        )
        assert hits(src, select=["POL003"]) == ["POL003"]

    def test_injector_typo_hook_flagged(self):
        src = (
            "class NullInjector:\n"
            "    def on_begin_tx(self, mem): pass\n"
            "    def on_end_tx(self, mem): pass\n"
            "class Typo(NullInjector):\n"
            "    def on_begin_txn(self, mem): pass\n"
        )
        assert hits(src, select=["POL004"]) == ["POL004"]

    def test_injector_valid_override_clean(self):
        src = (
            "class NullInjector:\n"
            "    def on_begin_tx(self, mem): pass\n"
            "class Fine(NullInjector):\n"
            "    def on_begin_tx(self, mem): pass\n"
            "    def _private_helper(self): pass\n"
        )
        assert hits(src, select=["POL004"]) == []

    def test_pol_suppression(self):
        src = POLICY_ROOT + (
            "class Bad(CyclePolicy):  "
            "# simlint: disable=POL001,POL002 -- wrapper built elsewhere\n"
            "    pass\n"
        )
        assert hits(src, select=["POL"]) == []


# ---------------------------------------------------------------------------
# OBS001 — print/logging in sim-critical code
# ---------------------------------------------------------------------------
class TestPrintLogging:
    def test_print_flagged_in_sim_code(self):
        src = "def f(x):\n    print(x)\n"
        assert hits(src, select=["OBS"]) == ["OBS001"]

    def test_logging_import_and_call_flagged(self):
        src = (
            "import logging\n"
            "logger = logging.getLogger(__name__)\n"
            "def f():\n"
            "    logger.info('hi')\n"
        )
        assert hits(src, select=["OBS"]) == ["OBS001", "OBS001", "OBS001"]

    def test_unscoped_file_not_flagged(self):
        src = "def f(x):\n    print(x)\n"
        assert hits(src, path=UNSCOPED_PATH, select=["OBS"]) == []

    def test_math_log_clean(self):
        src = "import math\n\ndef f(x):\n    return math.log(x)\n"
        assert hits(src, select=["OBS"]) == []

    def test_bus_emission_clean(self):
        src = (
            "def f(bus, registry, now):\n"
            "    registry.counter('commits').inc()\n"
            "    bus.emit(now, 'commit', 0)\n"
        )
        assert hits(src, select=["OBS"]) == []

    def test_obs_suppression(self):
        src = (
            "def f(x):\n"
            "    print(x)  # simlint: disable=OBS001 -- debug aid\n"
        )
        assert hits(src, select=["OBS"]) == []
        (sup,) = suppressed(src, select=["OBS"])
        assert sup.finding.rule == "OBS001"
        assert sup.reason == "debug aid"


# ---------------------------------------------------------------------------
# engine behaviors
# ---------------------------------------------------------------------------
class TestEngine:
    def test_skip_file_pragma(self):
        """``skip-file`` is not a pragma: it is reported and skips
        nothing."""
        src = "# simlint: skip-file\nimport time\nx = time.time()\n"
        assert hits(src) == ["PRG001", "FLOW001"]

    def test_skip_file_pragma_deep_in_file_ignored(self):
        src = (
            "import time\nx = time.time()\n" + "y = 1\n" * 12
            + "# simlint: skip-file\n"
        )
        assert hits(src) == ["FLOW001", "PRG001"]

    def test_blanket_disable(self):
        """A disable without a rule list is malformed and suppresses
        nothing: every suppression names its rules."""
        src = "import time\nx = time.time()  # simlint: disable\n"
        assert hits(src) == ["FLOW001", "PRG001"]

    def test_disable_other_rule_does_not_mask(self):
        src = "import time\nx = time.time()  # simlint: disable=ORD001\n"
        assert hits(src) == ["FLOW001"]

    def test_syntax_error_is_finding(self):
        result = lint_sources({SIM_PATH: "def f(:\n"})
        assert [f.rule for f in result.findings] == ["E999"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_sources({SIM_PATH: "x = 1\n"}, select=["NOPE999"])

    def test_family_prefix_selection(self):
        src = "import time\nx = time.time()\nfor y in {1, 2}:\n    print(y)\n"
        assert hits(src, select=["FLOW"]) == ["FLOW001"]
        assert hits(src, select=["ORD"]) == ["ORD001"]

    def test_ignore_family(self):
        src = "import time\nx = time.time()\nfor y in {1, 2}:\n    consume(y)\n"
        result = lint_sources({SIM_PATH: src}, ignore=["FLOW"])
        assert [f.rule for f in result.findings] == ["ORD001"]

    def test_findings_sorted_and_deduped(self):
        src = (
            "import time\n"
            "s = {1, 2}\n"
            "for x in s:\n"
            "    consume(x)\n"
            "y = time.time()\n"
        )
        result = lint_sources({SIM_PATH: src})
        assert [f.rule for f in result.findings] == ["ORD001", "FLOW001"]
        lines = [f.line for f in result.findings]
        assert lines == sorted(lines)
        assert len(result.findings) == len(set(result.findings))
