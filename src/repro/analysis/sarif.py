"""SARIF 2.1.0 rendering for simlint results.

One run, one tool (``simlint``), the full rule catalog in
``tool.driver.rules``, one result per finding.  Baselined FLOW
findings are emitted as suppressed results (``suppressions`` with
``kind: external``) so SARIF viewers show them greyed out with their
justification instead of hiding them.

Output is deterministic — sorted keys, no timestamps, no absolute
paths — so a re-run of an unchanged tree is byte-identical.
"""

from __future__ import annotations

import json

from repro.analysis.engine import LintResult
from repro.analysis.rules import ALL_RULES

__all__ = ["render_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_entries() -> list[dict]:
    return [
        {
            "id": rule.id,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.rationale},
        }
        for rule in ALL_RULES
    ]


def _location(path: str, line: int, col: int) -> dict:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path},
            "region": {"startLine": line, "startColumn": max(col, 1)},
        }
    }


def render_sarif(result: LintResult) -> str:
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [_location(f.path, f.line, f.col)],
        }
        for f in result.findings
    ]
    results.extend(
        {
            "ruleId": b["rule"],
            "level": "note",
            "message": {"text": b["message"]},
            "locations": [_location(b["path"], b["line"], 1)],
            "suppressions": [
                {
                    "kind": "external",
                    "justification": b["justification"],
                }
            ],
        }
        for b in result.baselined
    )
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": "docs/STATIC_ANALYSIS.md",
                        "rules": _rule_entries(),
                    }
                },
                "results": results,
                "properties": {
                    "filesScanned": result.files_scanned,
                    "rulesRun": result.rules_run,
                },
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
