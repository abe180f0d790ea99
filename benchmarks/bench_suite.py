"""Unified core benchmark suite — one entry point, one artifact.

``python benchmarks/bench_suite.py`` (with ``PYTHONPATH=src``) runs the
named core benches — the whole-row expected-cost quadrature, the
theorem-verification table, the DES event loop and the batched
Monte-Carlo engine — and writes a schema-validated ``BENCH_core.json``
to the repo root.  Batched benches time both the batched path and the
per-point or per-trial path it replaced, so the recorded ``speedup``
field is the living evidence for the vectorization claims in
``docs/PERFORMANCE.md``.

CI modes::

    bench_suite.py --quick --update-baseline   # refresh BENCH_core.json
    bench_suite.py --quick --check-against BENCH_core.json

The check mode re-runs the suite and fails (exit 1) only when a bench's
wall clock regressed by more than ``--threshold`` (default 2.0x) versus
the committed baseline — wide enough to absorb runner jitter, tight
enough to catch a vectorized path silently falling back to scalar work.
``ops`` counts (grid cells evaluated, events fired) are
machine-independent and must match the baseline exactly.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import platform
import statistics
import sys
import time

import numpy as np

try:  # package import (tests) or sibling import (standalone script)
    from benchmarks import schema as bench_schema
except ImportError:  # pragma: no cover - script-mode fallback
    import schema as bench_schema  # type: ignore[no-redef]

from repro.core.model import ConflictKind, ConflictModel
from repro.core.requestor_wins import UniformRW
from repro.core.verify import expected_cost, expected_cost_curve
from repro.experiments.tables import run_tab_ratios
from repro.rngutil import seedseq_for
from repro.sim.engine import Simulator
from repro.sim.mc import TrialProgram, run_trials

#: Seed recorded in the payload; the suite itself is deterministic.
BENCH_SEED = 2018

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Wall-clock regression gate: fail only past this slowdown factor.
DEFAULT_THRESHOLD = 2.0


def _median_time(fn, repeats: int) -> float:
    """Median-of-``repeats`` wall clock of ``fn()`` in seconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# named benches: each returns a schema-shaped entry dict
# ---------------------------------------------------------------------------


def bench_fig2_expectation_row(quick: bool, repeats: int) -> dict:
    """Expected-cost curve of the uniform RW policy over a D row.

    Batched path: one :func:`repro.core.verify.expected_cost_curve`
    call (one quadrature shared by the whole row).  Scalar path:
    per-point :func:`repro.core.verify.expected_cost`, which rebuilds
    the full 8193-point quadrature for every D.
    """
    n = 64 if quick else 512
    B, k = 2000.0, 2
    d = np.linspace(10.0, 4.0 * B, n)
    policy = UniformRW(B)
    model = ConflictModel(ConflictKind.REQUESTOR_WINS, B=B, k=k)

    def batched_path():
        expected_cost_curve(policy, model, d)

    def scalar_path():
        for di in d:
            expected_cost(policy, model, float(di))

    median_s = _median_time(batched_path, repeats)
    baseline_s = _median_time(scalar_path, max(1, repeats // 3))
    return {
        "median_s": round(median_s, 6),
        "repeats": repeats,
        "ops": n,
        "baseline_s": round(baseline_s, 6),
        "speedup": round(baseline_s / max(median_s, 1e-12), 2),
    }


def bench_tab_ratios(quick: bool, repeats: int) -> dict:
    """End-to-end theorem-verification table: the sup-ratio adversary
    search over every theorem's policy at each (B, k) cell."""
    kwargs = (
        dict(B_values=(200.0,), k_values=(2, 4), grid=512)
        if quick
        else dict(B_values=(50.0, 200.0), k_values=(2, 4), grid=2048)
    )
    n_rows = len(run_tab_ratios(**kwargs))
    median_s = _median_time(lambda: run_tab_ratios(**kwargs), repeats)
    return {
        "median_s": round(median_s, 6),
        "repeats": repeats,
        "ops": n_rows,
    }


def bench_des_event_loop(quick: bool, repeats: int) -> dict:
    """DES hot path: a self-rescheduling handler chain, so each event
    costs one ``Simulator.after`` call (one ``[time, seq, handler, args,
    label]`` list, pushed as the C-compared heap entry and returned as
    the handle) and one pass of the single ``Simulator.run`` loop, which
    pops and fires it inline.  ``ops`` is the exact number of events
    fired — machine-independent by contract."""
    n_events = 20_000 if quick else 200_000

    def run_chain():
        sim = Simulator()
        # the handler counts its own firings: run() adds to
        # events_fired only when it returns
        fired = 0

        def tick():
            nonlocal fired
            fired += 1
            if fired < n_events:
                sim.after(1.0, tick, label="tick")

        sim.after(0.0, tick, label="tick")
        sim.run()
        if sim.events_fired != n_events:
            raise RuntimeError(
                f"DES bench fired {sim.events_fired}, expected {n_events}"
            )

    median_s = _median_time(run_chain, repeats)
    return {
        "median_s": round(median_s, 6),
        "repeats": repeats,
        "ops": n_events,
    }


def _progress_program(y: float, gamma: int, **kwargs) -> TrialProgram:
    """The Corollary 2 experiment shape: gamma conflicts per execution,
    evenly spread over a transaction of running time y."""
    conflicts = tuple(
        (y * (1.0 - (i + 0.5) / gamma) + 1.0, 2) for i in range(gamma)
    )
    return TrialProgram(rho=y, conflicts=conflicts, k=2, B0=64.0, **kwargs)


def bench_mc_cor2_trials(quick: bool, repeats: int) -> dict:
    """Corollary 2 trials through the batched SoA Monte-Carlo engine.

    Batched path: ``repro.sim.mc`` lockstep rounds (one array op per
    conflict slot per attempt).  Scalar path: the golden reference —
    per-trial ``TimedArena.run_transaction`` + ``BackoffPolicy`` over
    the identical draw layout (bit-identical rows by contract).
    """
    n = 2000 if quick else 20000
    program = _progress_program(4000.0, 6, factor=2.0)
    root = seedseq_for(BENCH_SEED, "bench", "mc_cor2")

    def batched_path():
        run_trials(program, n, seed=root, engine="batch")

    def scalar_path():
        run_trials(program, n, seed=root, engine="scalar")

    median_s = _median_time(batched_path, repeats)
    baseline_s = _median_time(scalar_path, max(1, repeats // 3))
    return {
        "median_s": round(median_s, 6),
        "repeats": repeats,
        "ops": n,
        "baseline_s": round(baseline_s, 6),
        "speedup": round(baseline_s / max(median_s, 1e-12), 2),
    }


def bench_mc_ablation_grid(quick: bool, repeats: int) -> dict:
    """The backoff-ablation grid (4 growth variants) through the batched
    engine vs the scalar golden reference — the ``run_abl_backoff``
    shape at bench size."""
    n = 800 if quick else 8000
    variants = (
        dict(factor=2.0),
        dict(factor=1.5),
        dict(factor=1.0, increment=64.0),
        dict(factor=1.0, increment=256.0),
    )
    programs = [_progress_program(2000.0, 3, **kw) for kw in variants]
    roots = [
        seedseq_for(BENCH_SEED, "bench", "mc_abl", i)
        for i in range(len(programs))
    ]

    def grid(engine: str):
        for program, root in zip(programs, roots):
            run_trials(program, n, seed=root, engine=engine)

    median_s = _median_time(lambda: grid("batch"), repeats)
    baseline_s = _median_time(lambda: grid("scalar"), max(1, repeats // 3))
    return {
        "median_s": round(median_s, 6),
        "repeats": repeats,
        "ops": n * len(programs),
        "baseline_s": round(baseline_s, 6),
        "speedup": round(baseline_s / max(median_s, 1e-12), 2),
    }


#: Registry: name -> callable(quick, repeats) -> entry dict.
BENCHES = {
    "fig2_expectation_row": bench_fig2_expectation_row,
    "tab_ratios": bench_tab_ratios,
    "des_event_loop": bench_des_event_loop,
    "mc_cor2_trials": bench_mc_cor2_trials,
    "mc_ablation_grid": bench_mc_ablation_grid,
}


def run_suite(*, quick: bool, repeats: int = 5) -> dict:
    """Run every named bench; return the schema-shaped payload."""
    benches = {}
    for name, fn in BENCHES.items():
        benches[name] = fn(quick, repeats)
        print(f"  {name}: {json.dumps(benches[name])}", file=sys.stderr)
    payload = {
        "schema_version": 1,
        "suite": "core",
        "generated_by": "benchmarks/bench_suite.py",
        "quick": quick,
        "seed": BENCH_SEED,
        "python": platform.python_version(),
        "cpu_count": multiprocessing.cpu_count(),
        "benches": benches,
    }
    return bench_schema.validate_core_payload(payload)


def compare_to_baseline(
    current: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Regression check; returns a list of failure messages (empty = pass).

    Wall clock fails only past ``threshold``x the committed baseline
    (absorbs runner variance); ``ops`` counts must match exactly; a
    bench missing from the current run fails (a silently dropped bench
    is how a regression hides).
    """
    bench_schema.validate_core_payload(baseline)
    bench_schema.validate_core_payload(current)
    failures = []
    for name, base in baseline["benches"].items():
        cur = current["benches"].get(name)
        if cur is None:
            failures.append(f"{name}: present in baseline but not in this run")
            continue
        if "ops" in base and cur.get("ops") != base["ops"]:
            failures.append(
                f"{name}: ops changed {base['ops']} -> {cur.get('ops')} "
                f"(work count must be updated with --update-baseline)"
            )
        base_s = base["median_s"]
        if base_s > 0 and cur["median_s"] > threshold * base_s:
            failures.append(
                f"{name}: median {cur['median_s']:.6f}s is "
                f"{cur['median_s'] / base_s:.2f}x the baseline "
                f"{base_s:.6f}s (threshold {threshold:.1f}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized grids (the committed baseline is quick-mode)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timing repeats per bench; the median is recorded",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="write the payload to this path (schema-validated)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the payload to the committed BENCH_core.json",
    )
    parser.add_argument(
        "--check-against",
        type=pathlib.Path,
        default=None,
        metavar="BASELINE",
        help="compare against a committed BENCH_core.json; exit 1 on "
        "a wall-clock regression beyond --threshold or an ops mismatch",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="slowdown factor that fails the check (default: 2.0)",
    )
    args = parser.parse_args(argv)

    payload = run_suite(quick=args.quick, repeats=args.repeats)
    print(json.dumps(payload, indent=2))

    out = args.out
    if args.update_baseline:
        out = _REPO_ROOT / "BENCH_core.json"
    if out is not None:
        bench_schema.dump_payload(payload, "core", out)
        print(f"wrote {out}", file=sys.stderr)

    if args.check_against is not None:
        baseline = json.loads(args.check_against.read_text())
        failures = compare_to_baseline(payload, baseline, args.threshold)
        if failures:
            for line in failures:
                print(f"REGRESSION: {line}", file=sys.stderr)
            return 1
        print(
            f"bench gate passed: no bench beyond {args.threshold:.1f}x "
            f"of {args.check_against}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
