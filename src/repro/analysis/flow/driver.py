"""FLOW driver: parsed files in, raw FLOW findings out.

Orchestration only — extraction lives in :mod:`extract`, resolution
and fixpoints in :mod:`graph`.  The driver names the modules, reuses
the engine's parse and pragma table for each file, and collects the
sites a pragma sanctioned so the report can list them.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.flow.extract import extract_module
from repro.analysis.flow.graph import ProjectGraph
from repro.analysis.rules.base import FileContext

__all__ = ["analyze", "module_names"]


def module_names(paths: list[str]) -> dict[str, str]:
    """Dotted module name for each display path.

    Package membership is inferred from the analyzed set itself: a
    directory is a package exactly when its ``__init__.py`` is among
    the paths, and the module name is the chain of enclosing packages
    plus the stem.  This names ``src/repro/htm/machine.py`` as
    ``repro.htm.machine`` and a fixture mini-package's
    ``callbacks/sim/driver.py`` as ``sim.driver`` with no layout
    knowledge.
    """
    path_set = {Path(p).as_posix() for p in paths}
    names: dict[str, str] = {}
    for path in paths:
        p = Path(path)
        bits = [] if p.name == "__init__.py" else [p.stem]
        parent = p.parent
        while (parent / "__init__.py").as_posix() in path_set:
            bits.insert(0, parent.name)
            parent = parent.parent
        names[path] = ".".join(bits) if bits else p.stem
    return names


def analyze(ctxs: list[FileContext]) -> tuple[list[dict], list[dict]]:
    """Run the FLOW analysis over parsed files.

    Returns ``(raw findings, suppressed sites)``.  Raw findings are
    unfiltered: the engine applies selection and suppression.  Each
    suppressed site carries ``path``, ``line``, ``rule`` and
    ``detail``.
    """
    names = module_names([ctx.path for ctx in ctxs])
    summaries = [
        extract_module(ctx.path, ctx.tree, names[ctx.path], ctx.suppressions)
        for ctx in sorted(ctxs, key=lambda ctx: ctx.path)
    ]
    suppressed = [
        {**site, "path": summ["path"]}
        for summ in summaries
        for site in summ["suppressed"]
    ]
    return ProjectGraph(summaries).findings(), suppressed
