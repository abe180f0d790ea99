"""Deep-pass driver: sources in, raw FLOW findings out.

Orchestration only — extraction lives in :mod:`extract`, resolution
and fixpoints in :mod:`graph`, persistence in :mod:`cache`.  The
driver names the modules, consults the cache, fans extraction out over
a :class:`repro.parallel.SupervisedPool` when one is supplied, and
reports cache hit/miss statistics so callers (and the acceptance
tests) can verify the second run of an unchanged tree did no work.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.flow.cache import AnalysisCache
from repro.analysis.flow.extract import extract_module
from repro.analysis.flow.graph import ProjectGraph

__all__ = ["analyze_sources", "module_names"]


def module_names(paths: list[str]) -> dict[str, str]:
    """Dotted module name for each display path.

    Package membership is inferred from the analyzed set itself: a
    directory is a package exactly when its ``__init__.py`` is among
    the paths, and the module name is the chain of enclosing packages
    plus the stem.  This names ``src/repro/htm/machine.py`` as
    ``repro.htm.machine`` and a fixture mini-package's
    ``registry/reg/exp.py`` as ``reg.exp`` with no layout knowledge.
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


def _extract_one(path: str, source: str, module: str) -> dict | None:
    """Pool task: one module summary, or None if the file won't parse
    (the engine reports those as E999 separately)."""
    try:
        return extract_module(path, source, module)
    except SyntaxError:
        return None


def analyze_sources(
    sources: dict[str, str],
    *,
    cache_dir: str | Path | None = None,
    pool=None,
) -> tuple[list[dict], dict]:
    """Run the deep pass over in-memory sources.

    Returns ``(raw findings, stats)`` where stats counts
    ``file_hits`` / ``file_misses`` / ``run_hit``.  Raw findings are
    unfiltered: the engine applies selection and baselines so cached
    runs stay configuration-independent.
    """
    paths = sorted(sources)
    names = module_names(paths)
    stats = {"file_hits": 0, "file_misses": 0, "run_hit": 0}
    cache = AnalysisCache(cache_dir) if cache_dir is not None else None

    file_keys = {
        path: AnalysisCache.file_key(names[path], sources[path])
        for path in paths
    }
    run_key = AnalysisCache.run_key(list(file_keys.values()))
    if cache is not None:
        cached = cache.load_run(run_key)
        if cached is not None:
            stats["run_hit"] = 1
            stats["file_hits"] = len(paths)
            return cached, stats

    summaries: dict[str, dict | None] = {}
    missing: list[str] = []
    for path in paths:
        summary = cache.load_file(file_keys[path]) if cache else None
        if summary is not None and summary.get("path") == path:
            stats["file_hits"] += 1
            summaries[path] = summary
        else:
            missing.append(path)
    stats["file_misses"] = len(missing)

    tasks = [(path, sources[path], names[path]) for path in missing]
    if pool is not None and len(tasks) > 1:
        extracted = pool.starmap(_extract_one, tasks)
    else:
        extracted = [_extract_one(*task) for task in tasks]
    for path, summary in zip(missing, extracted):
        summaries[path] = summary
        if summary is not None and cache is not None:
            cache.store_file(file_keys[path], summary)

    parsed = [summaries[path] for path in paths if summaries[path]]
    findings = ProjectGraph(parsed).findings()
    if cache is not None:
        cache.store_run(run_key, findings)
    return findings, stats
