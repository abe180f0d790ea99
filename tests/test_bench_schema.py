"""Bench-artifact schemas: the committed ``BENCH_*.json`` kinds."""

from __future__ import annotations

import json
import math

import pytest

from benchmarks import schema


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
        schema.validate_payload(parallel_payload(), "parallel")
        schema.validate_payload(serve_payload(), "serve")
        with pytest.raises(schema.BenchSchemaError, match="kind"):
            schema.validate_payload(serve_payload(), "nope")


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

    def test_non_finite_latency_fails(self):
        for value in (math.nan, math.inf):
            with pytest.raises(schema.BenchSchemaError, match="p50_us"):
                schema.validate_serve_payload(serve_payload(p50_us=value))

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
        out = tmp_path / "BENCH_serve.json"
        schema.dump_payload(serve_payload(), "serve", out)
        assert json.loads(out.read_text()) == serve_payload()

    def test_invalid_payload_never_written(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        with pytest.raises(schema.BenchSchemaError):
            schema.dump_payload(serve_payload(suite="bad"), "serve", out)
        assert not out.exists()


class TestCommittedBaseline:
    def test_committed_artifacts_validate(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
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
