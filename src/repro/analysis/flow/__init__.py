"""Whole-program determinism analysis: the FLOW rules.

Call-graph purity inference over the whole project: :mod:`extract`
summarizes each module once, :mod:`graph` resolves calls and
propagates effect signatures to fixpoint, and :mod:`driver` runs both
over the engine's parsed files.
Findings carry rule ids from the FLOW family
(:mod:`repro.analysis.rules.flow`) and print full call chains.
"""

from repro.analysis.flow.driver import analyze, module_names
from repro.analysis.flow.extract import extract_module
from repro.analysis.flow.graph import ProjectGraph

__all__ = [
    "ProjectGraph",
    "analyze",
    "extract_module",
    "module_names",
]
