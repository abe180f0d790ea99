"""Bench-artifact schema and perf-regression gate logic."""

from __future__ import annotations

import json
import math

import pytest

from benchmarks import schema
from benchmarks.bench_suite import DEFAULT_THRESHOLD, compare_to_baseline


def core_payload(**overrides) -> dict:
    payload = {
        "schema_version": 1,
        "suite": "core",
        "generated_by": "benchmarks/bench_suite.py",
        "quick": True,
        "seed": 2018,
        "python": "3.11.7",
        "cpu_count": 1,
        "benches": {
            "fig2_expectation_row": {
                "median_s": 0.0004,
                "repeats": 5,
                "ops": 64,
                "baseline_s": 0.006,
                "speedup": 15.0,
            },
            "des_event_loop": {"median_s": 0.02, "repeats": 5, "ops": 20000},
        },
    }
    payload.update(overrides)
    return payload


def parallel_payload(**overrides) -> dict:
    payload = {
        "experiments": ["fig2a", "fig2b"],
        "quick": True,
        "seed": 2018,
        "trials": 1000,
        "jobs": 2,
        "cpu_count": 4,
        "serial_s": 10.0,
        "parallel_s": 5.0,
        "speedup": 2.0,
        "rows_identical": True,
        "generated_by": "benchmarks/bench_parallel.py",
    }
    payload.update(overrides)
    return payload


def serve_payload(**overrides) -> dict:
    payload = {
        "schema_version": 1,
        "suite": "serve",
        "generated_by": "repro.serve.replay",
        "quick": True,
        "seed": 2018,
        "python": "3.11.7",
        "cpu_count": 1,
        "requests": 14_007,
        "conflicts": 10_000,
        "commits": 4_007,
        "grants": 9_959,
        "aborts": 41,
        "regime_switches": 3,
        "clients": 8,
        "phases": 3,
        "wall_s": 0.5,
        "decisions_per_sec": 20_000.0,
        "p50_us": 20.0,
        "p99_us": 200.0,
        "service_p50_us": 50.0,
        "service_p99_us": 1000.0,
        "grid_builds": 44,
        "decision_log_sha256": "ab" * 32,
    }
    payload.update(overrides)
    return payload


class TestCoreSchema:
    def test_valid_payload_passes(self):
        assert schema.validate_core_payload(core_payload()) is not None

    def test_missing_field_fails(self):
        bad = core_payload()
        del bad["seed"]
        with pytest.raises(schema.BenchSchemaError, match="seed"):
            schema.validate_core_payload(bad)

    def test_unknown_field_fails(self):
        with pytest.raises(schema.BenchSchemaError, match="extra"):
            schema.validate_core_payload(core_payload(extra=1))

    def test_wrong_suite_fails(self):
        with pytest.raises(schema.BenchSchemaError, match="suite"):
            schema.validate_core_payload(core_payload(suite="parallel"))

    def test_empty_benches_fails(self):
        with pytest.raises(schema.BenchSchemaError, match="benches"):
            schema.validate_core_payload(core_payload(benches={}))

    def test_non_finite_median_fails(self):
        bad = core_payload()
        bad["benches"]["des_event_loop"]["median_s"] = math.nan
        with pytest.raises(schema.BenchSchemaError, match="median_s"):
            schema.validate_core_payload(bad)

    def test_negative_median_fails(self):
        bad = core_payload()
        bad["benches"]["des_event_loop"]["median_s"] = -1.0
        with pytest.raises(schema.BenchSchemaError, match="median_s"):
            schema.validate_core_payload(bad)

    def test_bool_is_not_a_number(self):
        bad = core_payload()
        bad["benches"]["des_event_loop"]["median_s"] = True
        with pytest.raises(schema.BenchSchemaError, match="median_s"):
            schema.validate_core_payload(bad)

    def test_baseline_without_speedup_fails(self):
        bad = core_payload()
        del bad["benches"]["fig2_expectation_row"]["speedup"]
        with pytest.raises(schema.BenchSchemaError, match="together"):
            schema.validate_core_payload(bad)


def scaling_point(**overrides) -> dict:
    point = {
        "jobs": 2,
        "parallel_s": 5.0,
        "speedup": 2.0,
        "rows_identical": True,
    }
    point.update(overrides)
    return point


class TestParallelSchema:
    def test_valid_payload_passes(self):
        assert schema.validate_parallel_payload(parallel_payload()) is not None

    def test_missing_field_fails(self):
        bad = parallel_payload()
        del bad["rows_identical"]
        with pytest.raises(schema.BenchSchemaError, match="rows_identical"):
            schema.validate_parallel_payload(bad)

    def test_scaling_and_warning_are_optional(self):
        payload = parallel_payload(
            scaling=[scaling_point(jobs=1, speedup=1.0), scaling_point()],
            warning="cpu_count == 1: speedup measures overhead",
        )
        assert schema.validate_parallel_payload(payload) is not None

    def test_empty_scaling_fails(self):
        with pytest.raises(schema.BenchSchemaError, match="scaling"):
            schema.validate_parallel_payload(parallel_payload(scaling=[]))

    def test_scaling_point_missing_field_fails(self):
        bad = scaling_point()
        del bad["speedup"]
        with pytest.raises(schema.BenchSchemaError, match=r"scaling\[0\]"):
            schema.validate_parallel_payload(parallel_payload(scaling=[bad]))

    def test_scaling_point_unknown_field_fails(self):
        bad = scaling_point(extra=1)
        with pytest.raises(schema.BenchSchemaError, match="extra"):
            schema.validate_parallel_payload(parallel_payload(scaling=[bad]))

    def test_scaling_point_bad_jobs_fails(self):
        bad = scaling_point(jobs=0)
        with pytest.raises(schema.BenchSchemaError, match="jobs"):
            schema.validate_parallel_payload(parallel_payload(scaling=[bad]))

    def test_empty_warning_fails(self):
        with pytest.raises(schema.BenchSchemaError, match="warning"):
            schema.validate_parallel_payload(parallel_payload(warning=""))

    def test_kind_dispatch(self):
        schema.validate_payload(core_payload(), "core")
        schema.validate_payload(parallel_payload(), "parallel")
        schema.validate_payload(serve_payload(), "serve")
        with pytest.raises(schema.BenchSchemaError, match="kind"):
            schema.validate_payload(core_payload(), "nope")


class TestServeSchema:
    def test_valid_payload_passes(self):
        assert schema.validate_serve_payload(serve_payload()) is not None

    def test_optional_service_latencies(self):
        payload = serve_payload()
        del payload["service_p50_us"]
        del payload["service_p99_us"]
        assert schema.validate_serve_payload(payload) is not None

    def test_missing_field_fails(self):
        bad = serve_payload()
        del bad["decision_log_sha256"]
        with pytest.raises(schema.BenchSchemaError, match="sha256"):
            schema.validate_serve_payload(bad)

    def test_unknown_field_fails(self):
        with pytest.raises(schema.BenchSchemaError, match="extra"):
            schema.validate_serve_payload(serve_payload(extra=1))

    def test_wrong_suite_fails(self):
        with pytest.raises(schema.BenchSchemaError, match="suite"):
            schema.validate_serve_payload(serve_payload(suite="core"))

    def test_counts_must_reconcile(self):
        with pytest.raises(schema.BenchSchemaError, match="requests"):
            schema.validate_serve_payload(serve_payload(commits=1))
        with pytest.raises(schema.BenchSchemaError, match="conflicts"):
            schema.validate_serve_payload(serve_payload(grants=1))

    def test_inverted_percentiles_fail(self):
        with pytest.raises(schema.BenchSchemaError, match="p99_us"):
            schema.validate_serve_payload(serve_payload(p99_us=1.0))

    def test_malformed_sha_fails(self):
        for bad in ("AB" * 32, "ab" * 31, "zz" * 32):
            with pytest.raises(schema.BenchSchemaError, match="sha256"):
                schema.validate_serve_payload(
                    serve_payload(decision_log_sha256=bad)
                )

    def test_grid_builds_required_and_non_negative(self):
        bad = serve_payload()
        del bad["grid_builds"]
        with pytest.raises(schema.BenchSchemaError, match="grid_builds"):
            schema.validate_serve_payload(bad)
        for value in (-1, 4.0, True):
            with pytest.raises(schema.BenchSchemaError, match="grid_builds"):
                schema.validate_serve_payload(serve_payload(grid_builds=value))

    def test_negative_latency_fails(self):
        with pytest.raises(schema.BenchSchemaError, match="p50_us"):
            schema.validate_serve_payload(serve_payload(p50_us=-1.0))

    def test_real_replay_payload_validates(self):
        """End-to-end: a tiny real replay produces a valid payload."""
        from repro.serve.loadgen import default_config
        from repro.serve.replay import bench_payload, run_replay

        config = default_config(quick=True).scaled(120)
        report = run_replay(5, config, clients=3, quick=True)
        payload = bench_payload(report, quick=True, seed=5)
        assert schema.validate_serve_payload(payload) is not None


class TestDumpPayload:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "BENCH_core.json"
        schema.dump_payload(core_payload(), "core", out)
        assert json.loads(out.read_text()) == core_payload()

    def test_invalid_payload_never_written(self, tmp_path):
        out = tmp_path / "BENCH_core.json"
        with pytest.raises(schema.BenchSchemaError):
            schema.dump_payload(core_payload(suite="bad"), "core", out)
        assert not out.exists()


class TestRegressionGate:
    def test_identical_run_passes(self):
        assert compare_to_baseline(core_payload(), core_payload()) == []

    def test_slowdown_within_threshold_passes(self):
        cur = core_payload()
        cur["benches"]["des_event_loop"]["median_s"] = 0.039  # 1.95x
        assert compare_to_baseline(cur, core_payload()) == []

    def test_slowdown_beyond_threshold_fails(self):
        cur = core_payload()
        cur["benches"]["des_event_loop"]["median_s"] = 0.05  # 2.5x
        failures = compare_to_baseline(cur, core_payload())
        assert len(failures) == 1
        assert "des_event_loop" in failures[0]

    def test_custom_threshold(self):
        cur = core_payload()
        cur["benches"]["des_event_loop"]["median_s"] = 0.05
        assert compare_to_baseline(cur, core_payload(), threshold=3.0) == []
        assert compare_to_baseline(cur, core_payload(), threshold=1.5)

    def test_ops_mismatch_fails(self):
        cur = core_payload()
        cur["benches"]["des_event_loop"]["ops"] = 10_000
        failures = compare_to_baseline(cur, core_payload())
        assert any("ops" in f for f in failures)

    def test_missing_bench_fails(self):
        cur = core_payload()
        del cur["benches"]["des_event_loop"]
        failures = compare_to_baseline(cur, core_payload())
        assert any("des_event_loop" in f for f in failures)

    def test_new_bench_in_current_run_is_fine(self):
        cur = core_payload()
        cur["benches"]["new_bench"] = {"median_s": 1.0, "repeats": 3}
        assert compare_to_baseline(cur, core_payload()) == []

    def test_speedup_improvement_passes(self):
        cur = core_payload()
        cur["benches"]["des_event_loop"]["median_s"] = 0.001
        assert compare_to_baseline(cur, core_payload()) == []

    def test_default_threshold_is_two(self):
        assert DEFAULT_THRESHOLD == 2.0


class TestCommittedBaseline:
    def test_committed_artifacts_validate(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        core = root / "BENCH_core.json"
        schema.validate_core_payload(json.loads(core.read_text()))
        par = root / "BENCH_parallel.json"
        if par.exists():
            schema.validate_parallel_payload(json.loads(par.read_text()))
        serve = root / "BENCH_serve.json"
        schema.validate_serve_payload(json.loads(serve.read_text()))

    def test_committed_serve_artifact_replays_byte_identically(self):
        """PR acceptance evidence: re-running the committed artifact's
        seed reproduces its decision-log digest exactly."""
        import pathlib

        from repro.serve.replay import run_replay

        root = pathlib.Path(__file__).resolve().parent.parent
        doc = json.loads((root / "BENCH_serve.json").read_text())
        assert doc["quick"], "committed baseline should be the quick run"
        report = run_replay(doc["seed"], clients=2, quick=True)
        assert report.decision_log_sha256() == doc["decision_log_sha256"]
        assert report.conflicts == doc["conflicts"]
        assert report.regime_switches == doc["regime_switches"]
        assert report.grid_builds == doc["grid_builds"]

    def test_committed_baseline_records_vectorization_win(self):
        """The acceptance evidence: at least one grid-shaped bench in
        the committed baseline shows >= 3x over the scalar path."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        doc = json.loads((root / "BENCH_core.json").read_text())
        speedups = [
            e["speedup"] for e in doc["benches"].values() if "speedup" in e
        ]
        assert speedups and max(speedups) >= 3.0

    def test_committed_baseline_records_mc_engine_win(self):
        """PR acceptance evidence: the batched Monte-Carlo engine
        benches are in the committed baseline at >= 10x over the scalar
        reference."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        doc = json.loads((root / "BENCH_core.json").read_text())
        for name in ("mc_cor2_trials", "mc_ablation_grid"):
            assert name in doc["benches"], name
            assert doc["benches"][name]["speedup"] >= 10.0, name
