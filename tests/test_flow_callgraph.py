"""Call-graph construction edge cases for the FLOW analysis:
decorated functions, bound methods (self / attribute-typed /
local-instance / inherited / super), lambdas as callbacks, import-time
registry tables, and import cycles.

Fixture mini-packages live under ``tests/fixtures/flow/``; each is
analyzed on its own so its internal imports resolve.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.engine import lint_paths, lint_sources
from repro.analysis.flow import ProjectGraph, extract_module, module_names

FIXTURES = Path(__file__).parent / "fixtures" / "flow"


def flow_findings(fixture: str) -> list[dict]:
    result = lint_paths([FIXTURES / fixture], select=["FLOW"])
    return result.flow


def chains(findings: list[dict]) -> dict[str, str]:
    """entry -> rendered chain, for one finding per entry."""
    return {
        f["entry"]: " -> ".join(f["chain"]) for f in findings
    }


class TestDecorators:
    def test_decorator_edge_reaches_wrapper_impurity(self):
        findings = flow_findings("decorators")
        (finding,) = [f for f in findings if f["rule"] == "FLOW001"]
        assert finding["entry"] == "sim.work:compute"
        assert finding["chain"] == [
            "sim.work:compute",
            "util.wrap:timed",
            "util.wrap:timed.wrapper",
        ]
        assert "time.perf_counter()" in finding["message"]


class TestBoundMethods:
    def test_self_and_attribute_typed_calls(self):
        by_entry = chains(flow_findings("classes"))
        assert by_entry["sim.machine:Machine.run"] == (
            "sim.machine:Machine.run -> sim.machine:Machine._spin "
            "-> sim.machine:Probe.now"
        )

    def test_local_instance_bound_method(self):
        by_entry = chains(flow_findings("classes"))
        assert by_entry["sim.machine:drive"].startswith(
            "sim.machine:drive -> sim.machine:Machine.run"
        )

    def test_inherited_method_cross_module(self):
        sources = {
            "pkg/sim/__init__.py": "",
            "pkg/sim/child.py": (
                "from lib.parent import Parent\n\n\n"
                "class Child(Parent):\n"
                "    def run(self):\n"
                "        return self.tick()\n"
            ),
            "pkg/lib/__init__.py": "",
            "pkg/lib/parent.py": (
                "import time\n\n\n"
                "class Parent:\n"
                "    def tick(self):\n"
                "        return time.time()\n"
            ),
        }
        findings = lint_sources(sources, select=["FLOW001"]).flow
        by_entry = chains(findings)
        assert by_entry["sim.child:Child.run"] == (
            "sim.child:Child.run -> lib.parent:Parent.tick"
        )

    def test_super_call_resolves_to_base(self):
        sources = {
            "pkg/sim/__init__.py": "",
            "pkg/sim/machines.py": (
                "import time\n\n\n"
                "class Base:\n"
                "    def setup(self):\n"
                "        return time.monotonic()\n\n\n"
                "class Derived(Base):\n"
                "    def setup(self):\n"
                "        return super().setup() + 1\n"
            ),
        }
        findings = lint_sources(sources, select=["FLOW001"]).flow
        by_entry = chains(findings)
        assert by_entry["sim.machines:Derived.setup"] == (
            "sim.machines:Derived.setup -> sim.machines:Base.setup"
        )


class TestCallbacks:
    def test_lambda_callback_folded_into_caller(self):
        by_entry = chains(flow_findings("callbacks"))
        assert by_entry["sim.driver:collect"] == (
            "sim.driver:collect -> util.wallclock:stamp "
            "-> util.wallclock:_now"
        )

    def test_function_reference_argument(self):
        by_entry = chains(flow_findings("callbacks"))
        assert by_entry["sim.driver:collect_ref"] == (
            "sim.driver:collect_ref -> util.wallclock:stamp "
            "-> util.wallclock:_now"
        )


class TestRegistryDispatch:
    def test_import_time_table_reaches_unscoped_runner(self):
        sources = {
            "pkg/experiments/__init__.py": "",
            "pkg/experiments/registry.py": (
                "from tools.runner import run_clock\n\n\n"
                "class _Spec:\n"
                "    def __init__(self, name, fn):\n"
                "        self.fn = fn\n\n\n"
                "_TABLE = [\n"
                "    _Spec('clock', run_clock),\n"
                "]\n"
            ),
            "pkg/tools/__init__.py": "",
            "pkg/tools/runner.py": (
                "import time\n\n\n"
                "def run_clock(seed):\n"
                "    return _mid(seed)\n\n\n"
                "def _mid(seed):\n"
                "    return seed + time.monotonic()\n"
            ),
        }
        findings = lint_sources(sources, select=["FLOW"]).flow
        (finding,) = findings
        assert finding["entry"] == "experiments.registry:<module>"
        assert finding["chain"] == [
            "experiments.registry:<module>",
            "tools.runner:run_clock",
            "tools.runner:_mid",
        ]
        # anchored at the table row that names the runner
        assert finding["line"] == 10


class TestImportCycles:
    def test_cycle_terminates_and_both_entries_flagged(self):
        findings = flow_findings("cycle")
        by_entry = chains(findings)
        assert by_entry["sim.cyc_a:ping"] == (
            "sim.cyc_a:ping -> sim.cyc_b:pong -> sim.cyc_b:_leaf"
        )
        assert by_entry["sim.cyc_b:pong"] == (
            "sim.cyc_b:pong -> sim.cyc_b:_leaf"
        )


class TestModuleNames:
    def test_src_layout(self):
        paths = [
            "src/repro/__init__.py",
            "src/repro/htm/__init__.py",
            "src/repro/htm/machine.py",
        ]
        names = module_names(paths)
        assert names["src/repro/htm/machine.py"] == "repro.htm.machine"
        assert names["src/repro/htm/__init__.py"] == "repro.htm"

    def test_single_directory_package(self):
        paths = [
            "tests/fixtures/flow/callbacks/sim/__init__.py",
            "tests/fixtures/flow/callbacks/sim/driver.py",
        ]
        names = module_names(paths)
        assert names["tests/fixtures/flow/callbacks/sim/driver.py"] == (
            "sim.driver"
        )

    def test_loose_script_uses_stem(self):
        assert module_names(["benchmarks/bench_parallel.py"]) == {
            "benchmarks/bench_parallel.py": "bench_parallel"
        }


class TestGraphDeterminism:
    def test_findings_stable_across_summary_order(self):
        paths = sorted(
            str(p) for p in (FIXTURES / "transitive").rglob("*.py")
        )
        sources = {p: Path(p).read_text(encoding="utf-8") for p in paths}
        names = module_names(paths)
        summaries = [
            extract_module(p, ast.parse(sources[p]), names[p], {})
            for p in paths
        ]
        forward = ProjectGraph(summaries).findings()
        backward = ProjectGraph(list(reversed(summaries))).findings()
        assert forward == backward
        assert forward  # the fixture is not accidentally clean
