"""Docs drift: the speedups README.md and docs/PERFORMANCE.md quote from
``BENCH_core.json`` must be the artifact's numbers.

Each quote is located by the words around it, and its figure must equal
the bench's recorded ``speedup`` rounded to one decimal, or the recorded
value itself (the regimes grid's 1.15x).  Regenerating the artifact
without updating the docs, or editing a figure by hand, fails here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: (document, bench, the words around the quote; ``{x}`` marks the figure)
QUOTES = [
    ("README.md", "fig2_expectation_row",
     "fig2 expectation row **{x}x** faster batched"),
    ("README.md", "mc_cor2_trials", "the Corollary 2 trial batch **{x}x**"),
    ("README.md", "mc_ablation_grid", "the backoff-ablation grid **{x}x**"),
    ("README.md", "regimes_theory_grid", "the regimes theory grid {x}x)"),
    ("docs/PERFORMANCE.md", "fig2_expectation_row",
     "| fig2 expectation row (64 `D` points, uniform RW quadrature) "
     "| 7.03 ms | 0.34 ms | **{x}x** |"),
    ("docs/PERFORMANCE.md", "regimes_theory_grid",
     "| regimes theory grid (1024 ratio evaluations) "
     "| 0.78 ms | 0.68 ms | **{x}x** |"),
    ("docs/PERFORMANCE.md", "ski_rental_grid",
     "| ski-rental grid (192 `(B, days)` cells) "
     "| 2.16 ms | 0.14 ms | **{x}x** |"),
    ("docs/PERFORMANCE.md", "mc_cor2_trials",
     "doubling program) **{x}x** faster batched"),
    ("docs/PERFORMANCE.md", "mc_ablation_grid",
     "800 trials each) **{x}x** (573 ms vs 29 ms)"),
]


def speedups() -> dict[str, float]:
    benches = json.loads((ROOT / "BENCH_core.json").read_text())["benches"]
    return {name: b["speedup"] for name, b in benches.items()
            if "speedup" in b}


def quote_pattern(context: str) -> re.Pattern:
    """``context`` as a regex: its words, any whitespace between them
    (the docs wrap lines), and the figure as the capture group."""
    figure = r"([0-9]+\.[0-9]+)"
    words = [re.escape(w).replace(r"\{x\}", figure) for w in context.split()]
    return re.compile(r"\s+".join(words))


@pytest.mark.parametrize(
    "doc,bench,context", QUOTES,
    ids=[f"{doc}:{bench}" for doc, bench, _ in QUOTES],
)
def test_quoted_speedup_matches_artifact(doc, bench, context):
    text = (ROOT / doc).read_text(encoding="utf-8")
    found = quote_pattern(context).findall(text)
    assert found, f"{doc}: no quote of {bench} ({context!r})"
    recorded = speedups()[bench]
    for figure in found:
        assert figure in (f"{recorded:.1f}", repr(recorded)), (
            f"{doc} quotes {bench} at {figure}x; BENCH_core.json records "
            f"{recorded} ({recorded:.1f}x)"
        )


def test_every_recorded_speedup_is_checked():
    """A bench that gains a ``speedup`` must be quoted and listed here."""
    assert {bench for _, bench, _ in QUOTES} == set(speedups())
