"""FLOW — whole-program determinism rules.

Unlike every other family, FLOW rules are not single-file AST queries:
they are produced by :mod:`repro.analysis.flow`, which builds a
project-wide call graph, infers per-function *effect signatures*, and
propagates them transitively to fixpoint.  A sim-critical entry point
that calls a wall-clock-reading helper three frames down — across
modules, through methods, decorators, callbacks, import-time tables
or a local alias — fails FLOW.

Only the two effects no runtime gate sees are checked: a wall-clock
read (a host-speed dependence that stays dormant on a fast machine)
and a filesystem write (a hidden channel that every side of a
byte-identity diff reads alike).  docs/STATIC_ANALYSIS.md has the
evidence and the retired ids.

The descriptors here exist so the catalog (``--list-rules``),
``--select``/``--ignore`` validation, and pragma checking all know the
ids; the analysis itself lives in :mod:`repro.analysis.flow` and runs
on every ``repro lint`` that selects a FLOW rule.
"""

from __future__ import annotations

from repro.analysis.rules.base import Rule

__all__ = ["FLOW_RULES", "FlowRuleInfo", "EFFECT_RULES"]


class FlowRuleInfo(Rule):
    """Catalog-only descriptor: FLOW findings come from the
    whole-program pass, never from :meth:`check`."""

    def check(self, ctx):  # pragma: no cover - descriptors never run
        return iter(())


class ReachesWallClock(FlowRuleInfo):
    id = "FLOW001"
    summary = "sim-critical entry point transitively reaches a wall-clock read"
    rationale = (
        "Simulated time must come from Simulator.now.  An entry point in "
        "htm/, sim/, core/, experiments/ (or any other sim-critical dir, "
        "import-time code included) that can reach time.time()/"
        "monotonic()/datetime.now() through any chain of calls makes rows "
        "depend on host speed.  The finding prints the full call chain to "
        "the offending read; a read that only times the host, never the "
        "simulation, needs a line pragma with its reason."
    )


class ReachesFilesystemWrite(FlowRuleInfo):
    id = "FLOW005"
    summary = "sim-critical entry point transitively writes the filesystem"
    rationale = (
        "Filesystem writes under a sim-critical entry point are hidden "
        "channels: they can feed later reads, collide across --jobs "
        "workers, and never replay.  Artifact I/O belongs in the runner "
        "and cache layers, behind atomic writes (ERR004)."
    )


#: Every FLOW rule, id-ordered (catalog + selection validation).
FLOW_RULES: tuple[FlowRuleInfo, ...] = (
    ReachesWallClock(),
    ReachesFilesystemWrite(),
)

#: effect-signature name -> the FLOW rule that reports it.
EFFECT_RULES: dict[str, str] = {
    "wall-clock": "FLOW001",
    "fs-write": "FLOW005",
}
