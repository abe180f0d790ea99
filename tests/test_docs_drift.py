"""Docs drift: the figures docs/PERFORMANCE.md quotes from
``BENCH_serve.json`` must be the artifact's numbers.

Each quote is located by the words around it and must equal the field
as the artifact writes it (the digest may be quoted by a prefix).
Regenerating the artifact without updating the docs, or editing a
figure by hand, fails here.  Only current quotes are listed: an earlier
figure the docs keep as history sits in other words and matches none
of the contexts.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: (document, ``BENCH_serve.json`` field, the words around the quote)
SERVE_QUOTES = [
    ("docs/PERFORMANCE.md", "p99_us",
     "The committed artifact reads `p99_us: {x}`,"),
    ("docs/PERFORMANCE.md", "grid_builds",
     "`grid_builds: {x}` and the digest"),
    ("docs/PERFORMANCE.md", "decision_log_sha256",
     "and the digest `{x}…`"),
]

#: per quoted field: how the figure is written, and whether it matches
SERVE_FIGURES = {
    "p99_us": (r"([0-9]+\.[0-9]+)", lambda figure, v: figure == repr(v)),
    "grid_builds": (r"([0-9]+)", lambda figure, v: figure == str(v)),
    "decision_log_sha256": (
        r"([0-9a-f]{8,64})", lambda figure, v: v.startswith(figure)
    ),
}


def quote_pattern(context: str, figure: str) -> re.Pattern:
    """``context`` as a regex: its words, any whitespace between them
    (the docs wrap lines), and ``figure`` as the capture group."""
    words = [re.escape(w).replace(r"\{x\}", figure) for w in context.split()]
    return re.compile(r"\s+".join(words))


@pytest.mark.parametrize(
    "doc,field,context", SERVE_QUOTES,
    ids=[f"{doc}:{field}" for doc, field, _ in SERVE_QUOTES],
)
def test_quoted_serve_figure_matches_artifact(doc, field, context):
    text = (ROOT / doc).read_text(encoding="utf-8")
    figure, matches = SERVE_FIGURES[field]
    found = quote_pattern(context, figure).findall(text)
    assert found, f"{doc}: no quote of BENCH_serve.json {field} ({context!r})"
    recorded = json.loads((ROOT / "BENCH_serve.json").read_text())[field]
    for quoted in found:
        assert matches(quoted, recorded), (
            f"{doc} quotes BENCH_serve.json {field} as {quoted}; the "
            f"artifact records {recorded!r}"
        )


#: a rule id in a table cell of docs/STATIC_ANALYSIS.md
RULE_ID = re.compile(r"\b[A-Z]{3,4}[0-9]{3}\b")


def documented_rule_ids() -> set[str]:
    """Every rule id named in any cell of any table in the rule docs."""
    text = (ROOT / "docs" / "STATIC_ANALYSIS.md").read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line.startswith("|")]
    return {rule for row in rows for rule in RULE_ID.findall(row)}


def test_every_rule_is_in_a_docs_table():
    from repro.analysis import all_rule_ids

    missing = set(all_rule_ids()) - documented_rule_ids()
    assert not missing, f"docs/STATIC_ANALYSIS.md tables omit {sorted(missing)}"


def test_no_docs_table_names_a_retired_rule():
    from repro.analysis import all_rule_ids

    unknown = documented_rule_ids() - set(all_rule_ids())
    assert not unknown, (
        f"docs/STATIC_ANALYSIS.md tables name {sorted(unknown)}, which the "
        f"rule catalog lacks"
    )
