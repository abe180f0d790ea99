"""``repro.analysis`` — simlint, the determinism & contract linter.

Every claim this repository reproduces rests on the simulator being
bit-deterministic under a seed.  Runtime gates (golden digests,
``--jobs`` and chaos byte-identity) catch most breaks of that
contract; this package catches the rest statically: wall-clock reads
and file writes reachable from simulation code, unordered-set
iteration, watchdog-swallowing ``except`` blocks, mutable defaults,
frozen-dataclass mutation, and protocol/registration violations.

Entry points:

* ``python -m repro lint`` — CLI (see :mod:`repro.analysis.cli`)
* :func:`lint_paths` / :func:`lint_sources` — library API
* ``docs/STATIC_ANALYSIS.md`` — rule catalog and suppression policy
"""

from __future__ import annotations

from repro.analysis.engine import (
    LintResult,
    SuppressedFinding,
    lint_paths,
    lint_sources,
)
from repro.analysis.rules import ALL_RULES, Finding, all_rule_ids

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "SuppressedFinding",
    "all_rule_ids",
    "lint_paths",
    "lint_sources",
]
