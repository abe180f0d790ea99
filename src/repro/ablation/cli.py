"""``python -m repro ablate`` — run the ablation matrix and report.

Generates the baseline-plus-one-flip cell set over the chosen workload
set, executes it through the experiment registry (each cell is the
experiment ``ablate/<flip>/<workload>``) on a
:class:`repro.parallel.SupervisedPool` of ``--jobs`` workers — with the
content-addressed ``.repro-cache/`` short-circuiting unchanged cells,
then scores flip importance and writes three artifacts into ``--out``:

* ``BENCH_ablate.json`` — schema-validated (``benchmarks/schema.py``,
  kind ``"ablate"``)
* ``BENCH_ablate.csv`` — the raw replicate rows
* ``BENCH_ablate.md`` — the importance-ranking report

Same seed ⇒ byte-identical artifacts at any ``--jobs``, and a
warm-cache rerun reproduces them while hitting cache for every
unchanged cell (the CI ``ablate`` job diffs exactly this).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.ablation import axes
from repro.ablation.cells import DEFAULT_WORKLOADS, WORKLOADS, cell_id
from repro.ablation.report import build_payload, render_csv, render_markdown
from repro.ablation.score import rank_scores, score_matrix
from repro.errors import ReproError

__all__ = ["ablate_main", "build_ablate_parser"]

DEFAULT_CACHE_DIR = ".repro-cache"


def _bench_schema():
    """Import ``benchmarks.schema`` (repo-root package) from anywhere."""
    try:
        from benchmarks import schema
        return schema
    except ImportError:
        root = pathlib.Path(__file__).resolve().parents[3]
        if (root / "benchmarks" / "schema.py").exists():
            sys.path.insert(0, str(root))
            from benchmarks import schema
            return schema
        return None


def build_ablate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro ablate",
        description="Strategy-ablation matrix with importance ranking "
        "(docs/ABLATION.md)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-scale cells (small horizons and trial counts)",
    )
    parser.add_argument("--seed", type=int, default=None, help="root seed")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for cell fan-out (rows are identical at "
        "any value)",
    )
    parser.add_argument(
        "--workloads", default=",".join(DEFAULT_WORKLOADS),
        help=f"comma-separated workload set "
        f"(known: {', '.join(sorted(WORKLOADS))})",
    )
    parser.add_argument(
        "--flips", default=None,
        help="comma-separated flip subset (default: the full matrix); "
        "'baseline' is always added",
    )
    parser.add_argument(
        "--replicates", type=int, default=None,
        help="override replicates per cell",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("."),
        help="directory for BENCH_ablate.{json,csv,md}",
    )
    parser.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="disable the content-addressed result cache",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=None,
        help=f"cache directory (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock budget in seconds",
    )
    return parser


def _resolve_flips(arg: str | None) -> list[str]:
    if arg is None:
        return axes.flip_labels()
    labels = [f.strip() for f in arg.split(",") if f.strip()]
    for label in labels:
        axes.config_from_flip(label)  # validates; raises on bad labels
    if axes.BASELINE_LABEL not in labels:
        labels.insert(0, axes.BASELINE_LABEL)
    return labels


def _run_cells(args, ids, overrides, cache_dir):
    """Execute cells; return (rows_by_id, cache_hits) or raise."""
    from repro.parallel import ExperimentTask, SupervisedPool

    outcomes = SupervisedPool(args.jobs, timeout=args.timeout).run(
        [
            ExperimentTask(
                exp_id,
                quick=args.quick,
                seed=args.seed,
                timeout=args.timeout,
                cache_dir=None if cache_dir is None else str(cache_dir),
                overrides=overrides,
            )
            for exp_id in ids
        ]
    )
    failed = [o for o in outcomes if o.status != "ok"]
    if failed:
        for o in failed:
            print(
                f"[{o.exp_id} {o.status}: {o.error_type}: {o.error}]",
                file=sys.stderr,
            )
        raise ReproError(f"{len(failed)} ablation cell(s) failed")
    results = {o.exp_id: o.result for o in outcomes}
    hits = sum(1 for r in results.values() if r.cached)
    return results, hits


def ablate_main(argv: list[str] | None = None) -> int:
    args = build_ablate_parser().parse_args(argv)
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.replicates is not None and args.replicates < 1:
        print(
            f"--replicates must be >= 1, got {args.replicates}",
            file=sys.stderr,
        )
        return 2
    try:
        flips = _resolve_flips(args.flips)
        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
        unknown = [w for w in workloads if w not in WORKLOADS]
        if unknown:
            raise ReproError(
                f"unknown workload(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(WORKLOADS))}"
            )
        if not workloads:
            raise ReproError("empty workload set")
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    cache_dir = None
    if args.cache:
        cache_dir = args.cache_dir or pathlib.Path(DEFAULT_CACHE_DIR)

    overrides: dict = {}
    if args.replicates is not None:
        overrides["replicates"] = args.replicates

    ids = [cell_id(flip, w) for flip in flips for w in workloads]
    try:
        results, hits = _run_cells(args, ids, overrides, cache_dir)
    except ReproError as exc:
        print(f"ablate failed: {exc}", file=sys.stderr)
        return 1

    rows = [row for exp_id in ids for row in results[exp_id].rows]
    replicates = (
        args.replicates
        if args.replicates is not None
        else max((int(r["rep"]) for r in rows), default=-1) + 1
    )
    scores = score_matrix(rows, seed=args.seed)
    ranked = rank_scores(scores)
    payload = build_payload(
        rows,
        scores,
        workloads=workloads,
        replicates=replicates,
        quick=args.quick,
        seed=args.seed,
    )

    args.out.mkdir(parents=True, exist_ok=True)
    json_path = args.out / "BENCH_ablate.json"
    schema = _bench_schema()
    if schema is not None:
        schema.dump_payload(payload, "ablate", json_path)
    else:  # no repo checkout around the installed package
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(
            "[benchmarks.schema not importable; wrote unvalidated payload]",
            file=sys.stderr,
        )
    csv_path = args.out / "BENCH_ablate.csv"
    csv_path.write_text(render_csv(rows))
    md_path = args.out / "BENCH_ablate.md"
    md_path.write_text(render_markdown(payload))

    for rank, s in enumerate(ranked, start=1):
        print(f"{rank:2d}. {s.flip:16s} importance {s.importance:.4f}")
    print(f"[ablate: cells={len(ids)} cache_hits={hits}]")
    print(f"[reports -> {json_path}, {csv_path}, {md_path}]")
    return 0
