"""Serial vs parallel experiment execution, wall clock on the record.

Unlike the pytest-benchmark files next to it, this is a standalone
harness (``python benchmarks/bench_parallel.py``): it runs the same
experiment batch serially and on a :class:`repro.parallel.SupervisedPool`
(which at ``jobs == 1`` runs it in this process), checks the rows came
out identical (the determinism contract the parallel layer guarantees),
and writes the measurement to ``BENCH_parallel.json`` at the repo
root — machine speedup claims belong in version control next to the
code that produced them.

Speedup scales with physical cores; the payload records a full
``scaling`` jobs-sweep (jobs in {1, 2, 4} by default) next to the
headline ``--jobs`` point.  On a single-core runner the numbers
honestly come out ~1x (process startup is pure overhead there), and
the payload carries an explicit ``warning`` field in that regime so
the artifact cannot be misread as a scaling measurement.  The cache is
left off on both sides so both paths do the full computation.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import sys
import time

from repro.experiments import run_experiment
from repro.parallel import ExperimentTask, SupervisedPool

try:  # package import (tests) or sibling import (standalone script)
    from benchmarks import schema as bench_schema
except ImportError:  # pragma: no cover - script-mode fallback
    import schema as bench_schema  # type: ignore[no-redef]

#: Seed used by every benchmark so tables are identical run-to-run.
BENCH_SEED = 2018

#: The batch: Monte-Carlo heavy experiments that shard well.
DEFAULT_EXPERIMENTS = ("fig2a", "fig2b", "fig2c", "ext_regimes")

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _rows_of(results) -> list:
    return [r.rows for r in results]


#: Worker counts swept for the ``scaling`` curve (the headline
#: ``--jobs`` point is added to the sweep if it is not already in it).
SCALING_JOBS = (1, 2, 4)


def run_bench(
    *,
    jobs: int,
    trials: int,
    experiments: tuple[str, ...] = DEFAULT_EXPERIMENTS,
    scaling_jobs: tuple[int, ...] = SCALING_JOBS,
) -> dict[str, object]:
    """Time the batch serially and over the ``scaling_jobs`` sweep;
    return the payload (headline ``parallel_s``/``speedup`` are the
    ``--jobs`` point of the sweep)."""
    overrides = {"trials": trials}

    start = time.perf_counter()
    serial = [
        run_experiment(exp_id, quick=True, seed=BENCH_SEED, **overrides)
        for exp_id in experiments
    ]
    serial_s = time.perf_counter() - start
    serial_rows = _rows_of(serial)

    scaling: list[dict[str, object]] = []
    headline: dict[str, object] | None = None
    tasks = [
        ExperimentTask(exp_id, quick=True, seed=BENCH_SEED, overrides=overrides)
        for exp_id in experiments
    ]
    for n_jobs in sorted(set(scaling_jobs) | {jobs}):
        start = time.perf_counter()
        outcomes = SupervisedPool(n_jobs).run(tasks)
        parallel_s = time.perf_counter() - start
        failed = [o.exp_id for o in outcomes if not o.ok]
        if failed:
            raise RuntimeError(
                f"parallel run (jobs={n_jobs}) failed for: {', '.join(failed)}"
            )
        point = {
            "jobs": n_jobs,
            "parallel_s": round(parallel_s, 3),
            "speedup": round(serial_s / parallel_s, 3),
            "rows_identical": serial_rows
            == _rows_of([o.result for o in outcomes]),
        }
        scaling.append(point)
        if n_jobs == jobs:
            headline = point

    assert headline is not None  # jobs is always in the sweep
    payload: dict[str, object] = {
        "experiments": list(experiments),
        "quick": True,
        "seed": BENCH_SEED,
        "trials": trials,
        "jobs": jobs,
        "cpu_count": multiprocessing.cpu_count(),
        "serial_s": round(serial_s, 3),
        "parallel_s": headline["parallel_s"],
        "speedup": headline["speedup"],
        "rows_identical": all(p["rows_identical"] for p in scaling),
        "scaling": scaling,
    }
    if multiprocessing.cpu_count() == 1:
        payload["warning"] = (
            "cpu_count == 1: parallel 'speedup' on this runner measures "
            "process overhead, not scaling; read the scaling curve on a "
            "multi-core machine before drawing conclusions"
        )
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=min(4, multiprocessing.cpu_count()),
        help="worker processes for the parallel side (default: min(4, cores))",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=2_000_000,
        help="Monte-Carlo trials per experiment (quick-mode override)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=_REPO_ROOT / "BENCH_parallel.json",
        help="where to write the measurement (default: repo root)",
    )
    args = parser.parse_args(argv)
    payload = run_bench(jobs=args.jobs, trials=args.trials)
    payload["generated_by"] = "benchmarks/bench_parallel.py"
    bench_schema.dump_payload(payload, "parallel", args.out)
    print(json.dumps(payload, indent=2))
    if not payload["rows_identical"]:
        print("ERROR: serial and parallel rows differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
