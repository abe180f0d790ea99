"""``python -m repro lint`` — the determinism & contract linter.

Examples::

    python -m repro lint                       # lint src/ (default)
    python -m repro lint src tests/test_x.py   # explicit targets
    python -m repro lint --format json         # machine-readable
    python -m repro lint --select DET,ORD      # rule families
    python -m repro lint --list-rules          # catalog + rationale
    python -m repro lint --deep                # + whole-program FLOW pass
    python -m repro analyze                    # alias for lint --deep
    python -m repro lint --deep --format sarif # SARIF 2.1.0 (CI upload)
    python -m repro lint --deep --write-baseline  # accept current findings
    python -m repro lint --jobs 4              # parallel over files

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage error (unknown
rule, missing path, malformed baseline).  See
``docs/STATIC_ANALYSIS.md`` for the rule catalog, the suppression
policy, and the deep-pass baseline workflow.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.baseline import (
    DEFAULT_BASELINE_PATH,
    load_baseline,
    render_baseline,
)
from repro.analysis.engine import lint_paths
from repro.analysis.flow.cache import DEFAULT_ANALYSIS_CACHE_DIR
from repro.analysis.report import (
    render_human,
    render_json,
    render_rule_catalog,
)
from repro.analysis.sarif import render_sarif

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "simlint: AST-based determinism & contract linter for the "
            "transactional-conflict reproduction (DET/ORD/ERR/API/POL/"
            "OBS/PRG rule families, plus whole-program FLOW under "
            "--deep)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--select",
        metavar="RULE,...",
        default=None,
        help="only run these rules (full ids like DET001 or family "
        "prefixes like DET)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULE,...",
        default=None,
        help="skip these rules (same syntax as --select)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog with rationales and exit",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print suppressed findings and their justifications",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program FLOW pass (call-graph purity "
        "inference + RNG seed provenance; prints full call chains)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallelize per-file rules and deep extraction over N "
        "processes; output is identical at any N (default: 1)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline file accepting known deep findings (default: "
        f"{DEFAULT_BASELINE_PATH} when it exists)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the surviving deep findings to the baseline file "
        "(with placeholder justifications) and exit 0",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed analysis cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_ANALYSIS_CACHE_DIR,
        help="analysis cache directory (default: "
        f"{DEFAULT_ANALYSIS_CACHE_DIR})",
    )
    return parser


def _split(arg: str | None) -> list[str] | None:
    if arg is None:
        return None
    return [part.strip().upper() for part in arg.split(",") if part.strip()]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_catalog())
        return 0

    baseline_entries: list[dict] = []
    baseline_path = args.baseline
    if baseline_path is None and Path(DEFAULT_BASELINE_PATH).is_file():
        baseline_path = DEFAULT_BASELINE_PATH
    pool = None
    if args.jobs > 1:
        from repro.parallel import SupervisedPool

        pool = SupervisedPool(args.jobs)
    try:
        if args.deep and baseline_path and not args.write_baseline:
            baseline_entries = load_baseline(baseline_path)
        result = lint_paths(
            args.paths,
            select=_split(args.select),
            ignore=_split(args.ignore),
            deep=args.deep,
            pool=pool,
            cache_dir=None if args.no_cache else args.cache_dir,
            baseline_entries=baseline_entries,
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2

    if args.deep and args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE_PATH
        Path(target).write_text(
            render_baseline(result.flow), encoding="utf-8"
        )
        print(
            f"simlint: wrote {len(result.flow)} deep finding(s) to "
            f"{target}; edit the justifications before committing",
            file=sys.stderr,
        )
        return 0

    if args.deep and result.analysis_stats:
        stats = result.analysis_stats
        print(
            "simlint: analysis cache — "
            f"{stats.get('file_hits', 0)} file hit(s), "
            f"{stats.get('file_misses', 0)} miss(es), "
            f"run {'hit' if stats.get('run_hit') else 'miss'}",
            file=sys.stderr,
        )

    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_human(result))
        if args.show_suppressed and result.suppressed:
            print("suppressed:")
            for sup in result.suppressed:
                reason = f" -- {sup.reason}" if sup.reason else ""
                f = sup.finding
                print(f"  {f.path}:{f.line}: {f.rule}{reason}")
        if result.baselined:
            print("baselined:")
            for b in result.baselined:
                print(
                    f"  {b['path']}:{b['line']}: {b['rule']} -- "
                    f"{b['justification']}"
                )
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
