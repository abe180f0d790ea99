"""FLOW — whole-program determinism rules.

Unlike every other family, FLOW rules are not single-file AST queries:
they are produced by :mod:`repro.analysis.flow`, which builds a
project-wide call graph, infers per-function *effect signatures*, and
propagates them transitively to fixpoint.  A sim-critical entry point
that calls a wall-clock-reading helper three frames down — across
modules, through methods, decorators, callbacks, import-time tables
or a local alias — fails FLOW.

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


class ReachesAmbientRng(FlowRuleInfo):
    id = "FLOW002"
    summary = "sim-critical entry point transitively reaches ambient randomness"
    rationale = (
        "Randomness that does not flow through repro.rngutil seeded "
        "streams — stdlib random, numpy's global singleton, an unseeded "
        "default_rng() — desynchronizes replay no matter how many frames "
        "down the call chain it hides."
    )


class ReachesUnorderedIteration(FlowRuleInfo):
    id = "FLOW003"
    summary = "sim-critical entry point transitively reaches unordered-set iteration"
    rationale = (
        "Iterating a hash-ordered set anywhere under a sim-critical entry "
        "point lets PYTHONHASHSEED pick the event order.  ORD001 covers "
        "set-typed locals in the scoped dirs line-by-line; FLOW003 follows "
        "calls into helper modules the scoped rules never see."
    )


class ReachesGlobalMutation(FlowRuleInfo):
    id = "FLOW004"
    summary = "sim-critical entry point transitively mutates global state"
    rationale = (
        "A helper that writes a module-level global (or os.environ) makes "
        "an experiment's rows depend on what ran before it in the same "
        "process — replay order becomes part of the seed."
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


class AmbientSeedProvenance(FlowRuleInfo):
    id = "FLOW006"
    summary = "Generator/SeedSequence in sim-critical code born from ambient state"
    rationale = (
        "Every RNG in sim-critical code must derive from an explicit "
        "parameter or rngutil.seedseq_for/stream_for/spawn_streams.  A "
        "generator built from entropy (unseeded default_rng/SeedSequence), "
        "from the wall clock or pid, or returned by a helper that does so, "
        "breaks seed-provenance.  Pool workers in experiments/ and "
        "synthetic/ are in scope, so a worker that builds its own "
        "unseeded generator fails here."
    )


class RngAcrossWorkerBoundary(FlowRuleInfo):
    id = "FLOW007"
    summary = "RNG shared or captured across shard/worker boundaries"
    rationale = (
        "A module-level Generator, or a generator captured by a closure "
        "handed to a pool dispatch (starmap/map/submit), is drawn from in "
        "whatever order the workers interleave — rows stop being invariant "
        "to --jobs.  Workers must receive a seed/stream as an argument and "
        "derive their own generator (rngutil.seedseq_for)."
    )


#: Every FLOW rule, id-ordered (catalog + selection validation).
FLOW_RULES: tuple[FlowRuleInfo, ...] = (
    ReachesWallClock(),
    ReachesAmbientRng(),
    ReachesUnorderedIteration(),
    ReachesGlobalMutation(),
    ReachesFilesystemWrite(),
    AmbientSeedProvenance(),
    RngAcrossWorkerBoundary(),
)

#: effect-signature name -> purity rule id (FLOW001-005).
EFFECT_RULES: dict[str, str] = {
    "wall-clock": "FLOW001",
    "ambient-rng": "FLOW002",
    "unordered-iter": "FLOW003",
    "global-mutation": "FLOW004",
    "fs-write": "FLOW005",
}
