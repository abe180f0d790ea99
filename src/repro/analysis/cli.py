"""``python -m repro lint`` — the determinism & contract linter.

Examples::

    python -m repro lint                       # lint src/ (default)
    python -m repro lint src tests/test_x.py   # explicit targets
    python -m repro lint --select FLOW,ORD     # rule families
    python -m repro lint --list-rules          # catalog + rationale
    python -m repro lint --show-suppressed     # pragmas and their reasons

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage error (unknown
rule, missing path).  See ``docs/STATIC_ANALYSIS.md`` for the rule
catalog and the suppression policy.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.engine import lint_paths
from repro.analysis.report import render_human, render_rule_catalog

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "simlint: AST-based determinism & contract linter for the "
            "transactional-conflict reproduction (ORD/ERR/API/POL/OBS/"
            "PRG rule families, plus the whole-program FLOW rules)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="RULE,...",
        default=None,
        help="only run these rules (full ids like FLOW001 or family "
        "prefixes like FLOW)",
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
    try:
        result = lint_paths(
            args.paths, select=_split(args.select), ignore=_split(args.ignore)
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2

    print(render_human(result))
    if args.show_suppressed and result.suppressed:
        print("suppressed:")
        for sup in result.suppressed:
            reason = f" -- {sup.reason}" if sup.reason else ""
            f = sup.finding
            print(f"  {f.path}:{f.line}: {f.rule}{reason}")
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
