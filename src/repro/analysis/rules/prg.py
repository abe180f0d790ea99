"""PRG — pragma hygiene.

``# simlint: disable=...`` comments are part of the determinism
contract: each one is an audited exception.  A pragma naming a rule id
that does not exist (typo, or a rule renamed since) suppresses
nothing while *looking* like an audited exception — silently ignoring
it is how suppressions rot.  The engine parses pragmas itself, so the
finding is produced there; this descriptor gives the id a place in the
catalog and in ``--select``/``--ignore`` validation.
"""

from __future__ import annotations

from repro.analysis.rules.base import Rule

__all__ = ["PragmaHygieneRule"]


class PragmaHygieneRule(Rule):
    id = "PRG001"
    summary = "simlint pragma names an unknown rule id or is malformed"
    rationale = (
        "A ``# simlint: disable=FLOW01`` typo, or an id retired since "
        "(DET001, FLOW002), suppresses nothing but reads like an audited "
        "exception; a malformed pragma "
        "(``disable FLOW001`` without ``=``) used to silently disable "
        "every rule on the line.  Both now warn so the pragma ledger "
        "stays trustworthy."
    )

    def check(self, ctx):  # pragma: no cover - produced by the engine
        return iter(())
