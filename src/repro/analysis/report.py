"""simlint report rendering: human ``path:line:col: RULE message``
lines with a one-line summary, and the ``--list-rules`` catalog."""

from __future__ import annotations

from repro.analysis.engine import LintResult
from repro.analysis.rules import ALL_RULES

__all__ = ["render_human", "render_rule_catalog"]


def render_human(result: LintResult) -> str:
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}"
        for f in result.findings
    ]
    n = len(result.findings)
    n_sup = len(result.suppressed)
    sup_note = f", {n_sup} suppressed" if n_sup else ""
    if n == 0:
        summary = (
            f"simlint: clean — 0 findings in {result.files_scanned} "
            f"files{sup_note}"
        )
    else:
        by_rule = ", ".join(
            f"{rule}×{count}" for rule, count in result.counts().items()
        )
        summary = (
            f"simlint: {n} finding(s) in {result.files_scanned} files "
            f"({by_rule}{sup_note})"
        )
    return "\n".join(lines + [summary])


def render_rule_catalog() -> str:
    """``--list-rules`` output: one id + summary per line, with the
    rationale indented underneath."""
    blocks = []
    for rule in ALL_RULES:
        blocks.append(f"{rule.id}  {rule.summary}")
        if rule.rationale:
            blocks.append(f"       {rule.rationale}")
    return "\n".join(blocks)
