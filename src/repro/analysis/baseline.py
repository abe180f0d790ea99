"""Baseline file for FLOW findings.

A FLOW finding that is understood and accepted (e.g. the chaos
harness deliberately corrupting artifacts) is recorded in a committed
baseline — ``.simlint-baseline.json`` at the repo root — instead of a
pragma, because the finding belongs to a *chain*, not a line.  Each
entry carries a mandatory justification, and matched findings are
surfaced in the JSON report's ``baselined`` section so the ledger
stays auditable.

Fingerprints are line-independent — ``(rule, entry node, leaf site
detail)`` — so reformatting a file does not invalidate the baseline,
while any change to the chain's endpoints does.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "DEFAULT_BASELINE_PATH",
    "apply_baseline",
    "fingerprint",
    "load_baseline",
    "render_baseline",
]

DEFAULT_BASELINE_PATH = ".simlint-baseline.json"
BASELINE_VERSION = 1


def fingerprint(raw: dict) -> tuple[str, str, str]:
    """Line-independent identity of one raw FLOW finding."""
    return (raw["rule"], raw["entry"], raw["site"]["detail"])


def load_baseline(path: str | Path) -> list[dict]:
    """Baseline entries from ``path``.  Raises ``ValueError`` on a
    malformed file — a silently dropped baseline would un-gate CI."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ValueError(f"baseline {path}: expected {{'entries': [...]}}")
    entries = []
    for i, entry in enumerate(data["entries"]):
        missing = {"rule", "entry", "site", "justification"} - set(entry)
        if missing:
            raise ValueError(
                f"baseline {path}: entry {i} missing {sorted(missing)}"
            )
        entries.append(entry)
    return entries


def apply_baseline(
    raw_findings: list[dict], entries: list[dict]
) -> tuple[list[dict], list[dict]]:
    """Split raw findings into ``(kept, baselined)``.

    ``baselined`` items carry the matched justification so reports can
    surface *why* each accepted finding is accepted.
    """
    by_print = {
        (e["rule"], e["entry"], e["site"]): e["justification"]
        for e in entries
    }
    kept: list[dict] = []
    baselined: list[dict] = []
    for raw in raw_findings:
        justification = by_print.get(fingerprint(raw))
        if justification is None:
            kept.append(raw)
        else:
            baselined.append(
                {
                    "rule": raw["rule"],
                    "entry": raw["entry"],
                    "site": raw["site"]["detail"],
                    "path": raw["path"],
                    "line": raw["line"],
                    "message": raw["message"],
                    "justification": justification,
                }
            )
    return kept, baselined


def render_baseline(
    raw_findings: list[dict],
    justification: str = "TODO: justify this accepted finding",
) -> str:
    """Baseline JSON text covering ``raw_findings`` (``--write-baseline``).
    Every generated entry carries a placeholder justification that is
    expected to be edited before committing."""
    entries = sorted(
        {fingerprint(raw) for raw in raw_findings}
    )
    payload = {
        "version": BASELINE_VERSION,
        "entries": [
            {
                "rule": rule,
                "entry": entry,
                "site": site,
                "justification": justification,
            }
            for rule, entry, site in entries
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
