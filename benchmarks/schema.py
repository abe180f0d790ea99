"""Shared schema for committed bench artifacts.

Every producer (``bench_parallel.py`` → ``BENCH_parallel.json``,
``python -m repro loadgen`` → ``BENCH_serve.json``, ``python -m repro
ablate`` → ``BENCH_ablate.json``) validates its payload against this
module **at write time**, so a malformed artifact fails the producing
run loudly instead of being committed.

No external dependency: a field spec is ``(types, required,
predicate)`` and validation is a plain recursive walk.  The same specs
double as the *read*-side check CI runs over every committed artifact
(``python -m benchmarks.schema BENCH_*.json``) and the tests.
"""

from __future__ import annotations

import json
import math
import pathlib

__all__ = [
    "BenchSchemaError",
    "validate_parallel_payload",
    "validate_serve_payload",
    "validate_ablate_payload",
    "validate_payload",
    "validate_file",
    "dump_payload",
    "main",
]


class BenchSchemaError(ValueError):
    """A bench payload does not match its declared schema."""


def _fail(path: str, message: str) -> None:
    raise BenchSchemaError(f"{path}: {message}")


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _check_fields(obj: dict, spec: dict, path: str) -> None:
    """``spec`` maps field name -> (types, required, predicate|None)."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    for name, (types, required, predicate) in spec.items():
        if name not in obj:
            if required:
                _fail(path, f"missing required field {name!r}")
            continue
        value = obj[name]
        if not isinstance(value, types) or isinstance(value, bool) != (
            types is bool or (isinstance(types, tuple) and bool in types)
        ):
            _fail(
                path,
                f"field {name!r} has type {type(value).__name__}, "
                f"expected {types}",
            )
        if predicate is not None and not predicate(value):
            _fail(path, f"field {name!r} value {value!r} fails its constraint")
    unknown = set(obj) - set(spec)
    if unknown:
        _fail(path, f"unknown fields {sorted(unknown)}")


#: ``BENCH_parallel.json`` — serial against ``--jobs N`` wall clock of
#: one experiment set (``benchmarks/bench_parallel.py``).
_PARALLEL_SPEC = {
    "experiments": (list, True, lambda v: all(isinstance(e, str) for e in v)),
    "quick": (bool, True, None),
    "seed": (int, True, None),
    "trials": (int, True, lambda v: v >= 1),
    "jobs": (int, True, lambda v: v >= 1),
    "cpu_count": (int, True, lambda v: v >= 1),
    "serial_s": ((int, float), True, _is_finite_number),
    "parallel_s": ((int, float), True, _is_finite_number),
    "speedup": ((int, float), True, _is_finite_number),
    "rows_identical": (bool, True, None),
    "generated_by": (str, True, None),
    # jobs-sweep scaling curve (one entry per worker count, ascending);
    # element shape checked against _SCALING_SPEC
    "scaling": (list, False, lambda v: len(v) > 0),
    # set when the measurement regime is unactionable (e.g. a
    # single-core runner, where "speedup" only measures process
    # overhead)
    "warning": (str, False, lambda v: len(v) > 0),
}

#: One point of the ``scaling`` jobs-sweep inside ``BENCH_parallel.json``.
_SCALING_SPEC = {
    "jobs": (int, True, lambda v: v >= 1),
    "parallel_s": ((int, float), True, _is_finite_number),
    "speedup": ((int, float), True, _is_finite_number),
    "rows_identical": (bool, True, None),
}


def _is_latency_us(value) -> bool:
    return _is_finite_number(value) and value >= 0


def _is_sha256(value) -> bool:
    return len(value) == 64 and all(c in "0123456789abcdef" for c in value)


#: ``BENCH_serve.json`` — the decision-service replay artifact
#: (``python -m repro loadgen``).
#: ``decision_log_sha256`` fingerprints the canonical decision log so
#: the committed artifact itself witnesses the determinism contract:
#: re-running with the payload's seed must reproduce the digest.
#: ``seed`` is -1 when the run used the default seed.  ``grid_builds``
#: counts the inverse-CDF grids the serving policy built (0 for a
#: policy that does not keep the count); it is deterministic too.
_SERVE_SPEC = {
    "schema_version": (int, True, lambda v: v == 1),
    "suite": (str, True, lambda v: v == "serve"),
    "generated_by": (str, True, None),
    "quick": (bool, True, None),
    "seed": (int, True, None),
    "python": (str, True, None),
    "cpu_count": (int, True, lambda v: v >= 1),
    "requests": (int, True, lambda v: v >= 1),
    "conflicts": (int, True, lambda v: v >= 1),
    "commits": (int, True, lambda v: v >= 0),
    "grants": (int, True, lambda v: v >= 0),
    "aborts": (int, True, lambda v: v >= 0),
    "regime_switches": (int, True, lambda v: v >= 0),
    "clients": (int, True, lambda v: v >= 1),
    "phases": (int, True, lambda v: v >= 1),
    "wall_s": ((int, float), True, lambda v: _is_finite_number(v) and v >= 0),
    "decisions_per_sec": (
        (int, float),
        True,
        lambda v: _is_finite_number(v) and v >= 0,
    ),
    "p50_us": ((int, float), True, _is_latency_us),
    "p99_us": ((int, float), True, _is_latency_us),
    "service_p50_us": ((int, float), False, _is_latency_us),
    "service_p99_us": ((int, float), False, _is_latency_us),
    "grid_builds": (int, True, lambda v: v >= 0),
    "decision_log_sha256": (str, True, _is_sha256),
}


#: ``BENCH_ablate.json`` — the strategy-ablation importance ranking
#: (``python -m repro ablate``).  ``seed`` is -1 when the run used the
#: default seed.  ``ranking`` entries are checked against
#: ``_ABLATE_RANK_SPEC`` plus two cross-checks: ranks must be the
#: contiguous sequence 1..N and importance must be non-increasing —
#: a report violating either was assembled wrong, not just measured
#: differently.
_ABLATE_SPEC = {
    "schema_version": (int, True, lambda v: v == 1),
    "suite": (str, True, lambda v: v == "ablate"),
    "generated_by": (str, True, None),
    "quick": (bool, True, None),
    "seed": (int, True, None),
    "workloads": (
        list,
        True,
        lambda v: len(v) > 0 and all(isinstance(w, str) and w for w in v),
    ),
    "replicates": (int, True, lambda v: v >= 1),
    "n_rows": (int, True, lambda v: v >= 0),
    "baseline_config": (
        dict,
        True,
        lambda v: len(v) > 0
        and all(isinstance(x, str) for kv in v.items() for x in kv),
    ),
    "baseline": (dict, True, None),
    "ranking": (list, True, None),
}

#: One flip inside the ``ranking`` list of ``BENCH_ablate.json``.
_ABLATE_RANK_SPEC = {
    "rank": (int, True, lambda v: v >= 1),
    "flip": (str, True, lambda v: len(v) > 0),
    "axis": (str, True, lambda v: len(v) > 0),
    "value": (str, True, lambda v: len(v) > 0),
    "importance": (
        (int, float),
        True,
        lambda v: _is_finite_number(v) and v >= 0,
    ),
    "n_pairs": (int, True, lambda v: v >= 1),
    "metrics": (dict, True, lambda v: len(v) > 0),
}

#: One metric block inside a ranking entry (paired-delta summary).
_ABLATE_METRIC_SPEC = {
    "baseline_mean": ((int, float), True, _is_finite_number),
    "flipped_mean": ((int, float), True, _is_finite_number),
    "delta": ((int, float), True, _is_finite_number),
    "ci_lo": ((int, float), True, _is_finite_number),
    "ci_hi": ((int, float), True, _is_finite_number),
}


def validate_parallel_payload(payload: dict) -> dict:
    """Validate a ``BENCH_parallel.json`` payload; returns it unchanged."""
    _check_fields(payload, _PARALLEL_SPEC, "payload")
    for i, entry in enumerate(payload.get("scaling", [])):
        _check_fields(entry, _SCALING_SPEC, f"scaling[{i}]")
    return payload


def validate_serve_payload(payload: dict) -> dict:
    """Validate a ``BENCH_serve.json`` payload; returns it unchanged."""
    _check_fields(payload, _SERVE_SPEC, "payload")
    if payload["conflicts"] + payload["commits"] != payload["requests"]:
        _fail(
            "payload",
            f"conflicts + commits must equal requests "
            f"({payload['conflicts']} + {payload['commits']} != "
            f"{payload['requests']})",
        )
    if payload["grants"] + payload["aborts"] != payload["conflicts"]:
        _fail(
            "payload",
            f"grants + aborts must equal conflicts "
            f"({payload['grants']} + {payload['aborts']} != "
            f"{payload['conflicts']})",
        )
    if payload["p99_us"] < payload["p50_us"]:
        _fail(
            "payload",
            f"p99_us {payload['p99_us']!r} below p50_us "
            f"{payload['p50_us']!r}",
        )
    return payload


def validate_ablate_payload(payload: dict) -> dict:
    """Validate a ``BENCH_ablate.json`` payload; returns it unchanged."""
    _check_fields(payload, _ABLATE_SPEC, "payload")
    for workload, metrics in payload["baseline"].items():
        path = f"baseline[{workload!r}]"
        if not isinstance(metrics, dict) or not metrics:
            _fail(path, "expected a non-empty metric object")
        for name, value in metrics.items():
            if not _is_finite_number(value):
                _fail(path, f"metric {name!r} value {value!r} is not finite")
    previous = None
    for i, entry in enumerate(payload["ranking"]):
        path = f"ranking[{i}]"
        _check_fields(entry, _ABLATE_RANK_SPEC, path)
        if entry["rank"] != i + 1:
            _fail(
                path,
                f"ranks must be contiguous from 1: got {entry['rank']}, "
                f"expected {i + 1}",
            )
        if previous is not None and entry["importance"] > previous:
            _fail(
                path,
                f"importance must be non-increasing: {entry['importance']!r} "
                f"after {previous!r}",
            )
        previous = entry["importance"]
        for name, block in entry["metrics"].items():
            mpath = f"{path}.metrics[{name!r}]"
            _check_fields(block, _ABLATE_METRIC_SPEC, mpath)
            if block["ci_hi"] < block["ci_lo"]:
                _fail(
                    mpath,
                    f"ci_hi {block['ci_hi']!r} below ci_lo {block['ci_lo']!r}",
                )
    return payload


def validate_payload(payload: dict, kind: str) -> dict:
    """Validate by artifact kind: ``"parallel"``, ``"serve"`` or
    ``"ablate"``."""
    if kind == "parallel":
        return validate_parallel_payload(payload)
    if kind == "serve":
        return validate_serve_payload(payload)
    if kind == "ablate":
        return validate_ablate_payload(payload)
    raise BenchSchemaError(f"unknown bench artifact kind {kind!r}")


def dump_payload(payload: dict, kind: str, out: pathlib.Path) -> None:
    """Validate then write the canonical JSON rendering (the only way
    the harnesses persist an artifact)."""
    validate_payload(payload, kind)
    out.write_text(json.dumps(payload, indent=2) + "\n")


def _infer_kind(path: pathlib.Path, payload: dict) -> str:
    """Artifact kind from the ``BENCH_<kind>.json`` name, falling back
    to the in-payload ``suite`` (``BENCH_parallel.json`` has none)."""
    stem = path.stem
    if stem.startswith("BENCH_"):
        return stem[len("BENCH_"):]
    suite = payload.get("suite")
    if isinstance(suite, str):
        return suite
    raise BenchSchemaError(
        f"{path}: cannot infer artifact kind (name is not BENCH_<kind>.json "
        f"and payload has no 'suite' field)"
    )


def validate_file(path: pathlib.Path | str) -> str:
    """Validate one committed artifact file; returns its kind."""
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise BenchSchemaError(f"{path}: unreadable: {exc}") from exc
    except ValueError as exc:
        raise BenchSchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BenchSchemaError(f"{path}: top level is not an object")
    kind = _infer_kind(path, payload)
    try:
        validate_payload(payload, kind)
    except BenchSchemaError as exc:
        raise BenchSchemaError(f"{path}: {exc}") from exc
    return kind


def main(argv: list[str] | None = None) -> int:
    """CLI: ``python -m benchmarks.schema BENCH_*.json`` — the single
    read-side gate CI runs over every committed artifact."""
    import sys

    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: python -m benchmarks.schema BENCH_*.json", file=sys.stderr)
        return 2
    failures = 0
    for raw in paths:
        try:
            kind = validate_file(raw)
        except BenchSchemaError as exc:
            print(f"FAIL {raw}: {exc}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {raw} ({kind})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
