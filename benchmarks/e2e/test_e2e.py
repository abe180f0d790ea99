"""Tests of the end-to-end benchmark at miniature sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import compare as cmp
from benchmarks.e2e.bench import BatchSpec, HtmSpec, ServeSpec, measure
from benchmarks.e2e.cli import PACKAGE, ROOT, load_spec, result_line
from benchmarks.e2e.tracing import LAYERS, LayerTracer, RunCollector

SPEC = load_spec()

MINI = {
    "htm_txapp": HtmSpec(n_cores=4, horizon=20_000.0, rep_seconds=1.0),
    "serve_closed": ServeSpec(conflicts=600, clients=4, rep_seconds=1.0),
    "quick_batch": BatchSpec(ids=("abl_wedge", "cor2", "robustness"),
                             rep_seconds=1.0),
}

#: The output identity each workload's DETAIL line carries.
IDENTITY = {"htm_txapp": "digest", "serve_closed": "decision_log_sha256",
            "quick_batch": "rows_sha256"}


def _measure(workload: str, trace: bool, seconds: float = 1.0):
    return measure(workload, 7, seconds, trace, t_entry=time.perf_counter(),
                   spec=MINI[workload])


@pytest.fixture(scope="module", params=sorted(MINI))
def both_modes(request):
    workload = request.param
    return workload, _measure(workload, False), _measure(workload, True)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(MINI)


def test_every_metric_present_with_its_unit(both_modes):
    workload, plain, traced = both_modes
    for outcome, trace, kind in ((plain, False, "end_to_end"),
                                 (traced, True, "per_layer")):
        line = json.loads(json.dumps(result_line(outcome, SPEC, trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    assert all(plain.values[m["name"]] > 0 for m in SPEC["end_to_end"])


def test_traced_and_untraced_outputs_agree(both_modes):
    workload, plain, traced = both_modes
    key = IDENTITY[workload]
    assert plain.detail[key] == traced.detail[key]


def test_layer_self_times_cover_the_loop(both_modes):
    workload, _, traced = both_modes
    if not workload.startswith("htm_"):
        pytest.skip("no event loop of its own")
    values = traced.values
    self_times = [values[f"{layer}.self_s"] for layer in
                  ("engine", "core_model", "controller", "cache", "directory",
                   "waits_for", "conflict_policy", "workloads")]
    assert all(t >= 0 for t in self_times)
    # metrics are in reference seconds, the loop time in host seconds
    host_s = sum(self_times) * traced.detail["slowness"]
    loop_s = traced.detail["loop_s"]
    assert abs(host_s - loop_s) <= 0.05 * loop_s


def test_no_handler_falls_outside_a_layer(both_modes):
    workload, _, traced = both_modes
    assert traced.detail.get("unknown_modules", []) == []


def test_traced_counts_add_up_over_repetitions():
    """Every count covers every traced repetition, not only the last:
    each completed operation was issued by exactly one ``next_op``."""
    traced = _measure("htm_txapp", True, seconds=3 * 2.8)
    assert traced.detail["reps"] == 3
    values = traced.values
    assert values["workloads.next_op_calls"] == values["core_model.ops"] > 0
    assert values["controller.calls"] > values["core_model.ops"]
    assert values["core_model.fallback_ops"] <= values["core_model.ops"]


def test_a_program_slowdown_shows_in_full(monkeypatch):
    """Times are converted with the yardstick, which must not absorb a
    change to the program: repetitions that take twice as long, and
    leave a growing heap behind, read about half the throughput."""
    from repro.htm.machine import Machine

    plain = _measure("htm_txapp", False, seconds=3)
    run, ballast = Machine.run, []

    def slower_run(machine, *args, **kwargs):
        t0 = time.perf_counter()
        stats = run(machine, *args, **kwargs)
        end = t0 + 2 * (time.perf_counter() - t0)
        ballast.append([[i] for i in range(20_000)])
        while time.perf_counter() < end:
            pass
        return stats

    monkeypatch.setattr(Machine, "run", slower_run)
    slowed = _measure("htm_txapp", False, seconds=3)
    ratio = plain.values["throughput_per_s"] / slowed.values["throughput_per_s"]
    assert 1.5 <= ratio <= 2.7, ratio


def test_wrappers_are_restored():
    from repro.htm.cache import L1Cache
    from repro.htm.machine import Machine
    from repro.sim.engine import EventQueue

    classes = (L1Cache, Machine, EventQueue)
    before = [dict(vars(cls)) for cls in classes]
    tracer = LayerTracer()
    with RunCollector(tracer).installed(), tracer.installed():
        assert vars(L1Cache)["lookup"] is not before[0]["lookup"]
        assert vars(Machine)["run"] is not before[1]["run"]
    assert [dict(vars(cls)) for cls in classes] == before
    _measure("htm_txapp", True)
    assert [dict(vars(cls)) for cls in classes] == before


def test_layers_cover_the_modules():
    from benchmarks.e2e.tracing import layer_of_module

    assert layer_of_module("repro.htm.directory") == "directory"
    assert layer_of_module("repro.workloads.txapp") == "workloads"
    assert layer_of_module("repro.htm.machinery") == "unknown"
    assert "unknown" in LAYERS


# -- compare -------------------------------------------------------------------------
def _fake_set(scale: float = 1.0) -> list[dict]:
    """Ten seeds x every workload, end-to-end metrics with 1% jitter;
    ``scale`` slows every timing by that factor."""
    runs = []
    for seed in range(10):
        jitter = 1.0 + 0.01 * ((seed * 7) % 5 - 2) / 2
        for w in SPEC["workloads"]:
            metrics = {}
            for m in SPEC["end_to_end"]:
                value = 100.0 * jitter
                if m["unit"] != "MiB":
                    value = value / scale if m["better"] == "higher" else value * scale
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            runs.append({
                "workload": w["name"], "seed": seed, "seconds": 20,
                "trace": False, "exit_code": 0,
                "detail": {"digest": f"d{seed}"},
                "result": {"correct": True, "attempted": 10, "failed": 0,
                           "metrics": metrics},
            })
    return runs


def test_compare_passes_identical_sets():
    ok, lines = cmp.compare(_fake_set(), _fake_set(), SPEC)
    assert ok, "\n".join(lines)
    assert lines[-1] == "PASS"


def test_compare_flags_a_20_percent_slowdown():
    ok, lines = cmp.compare(_fake_set(), _fake_set(scale=1.2), SPEC)
    flagged = [line for line in lines if "throughput_per_s" in line]
    assert flagged and all(line.rstrip().endswith("REGRESSION")
                           for line in flagged)
    assert not ok


def test_compare_fails_a_slowdown_beyond_the_bound():
    ok, lines = cmp.compare(_fake_set(), _fake_set(scale=1.5), SPEC)
    assert not ok
    assert any(line.rstrip().endswith("REGRESSION") for line in lines)


def test_compare_reports_a_gain_only_by_the_pair_rule():
    ok, lines = cmp.compare(_fake_set(), _fake_set(scale=0.8), SPEC)
    assert ok
    assert any(line.rstrip().endswith("gain") for line in lines)


def test_compare_requires_identical_outputs():
    change = _fake_set()
    change[0]["detail"] = {"digest": "other"}
    ok, lines = cmp.compare(_fake_set(), change, SPEC)
    assert not ok
    assert any(line.startswith("OUTPUT MISMATCH") for line in lines)


# -- committed artifacts ----------------------------------------------------------------
def test_readme_baseline_is_rendered_from_baseline_json():
    baseline = json.loads(cmp.BASELINE_PATH.read_text(encoding="utf-8"))
    readme = cmp.README_PATH.read_text(encoding="utf-8")
    block = readme.split(cmp.BEGIN, 1)[1].split(cmp.END, 1)[0]
    assert block == "\n" + cmp.render_baseline(baseline)


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark: the
    run must fail fast and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PACKAGE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "htm_txapp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
