"""simlint engine: file discovery, parsing, suppression, rule dispatch.

The engine parses every target file once, runs the single-file rules
(optionally fanned out over a :class:`repro.parallel.SupervisedPool`),
then hands the whole parsed set to the project rules (cross-file
contracts).  Under ``deep=True`` it additionally runs the
whole-program pass (:mod:`repro.analysis.flow`): call-graph purity
inference and seed-provenance tracking, with findings filtered
through the committed baseline.

Suppression is line-scoped and per-rule::

    deadline = time.monotonic() + t  # simlint: disable=DET001 -- watchdog

``# simlint: disable`` (no ``=``) suppresses every rule on that line;
``# simlint: disable=DET001,ORD001`` suppresses several; spaces
around ``=`` and the commas are tolerated.  ``# simlint: skip-file``
near the top of a file excludes it entirely.  The text after ``--`` is
the justification and is carried into the JSON report, so
suppressions stay auditable.  A pragma naming an unknown rule id, or
one that does not parse, is itself a finding (``PRG001``) — silently
inert suppressions are how pragma ledgers rot.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.rules import (
    ALL_RULES,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    SCOPED_DIRS,
    resolve_selection,
)

__all__ = ["LintResult", "SuppressedFinding", "lint_paths", "lint_sources"]

#: Rule id used for files that do not parse.  Not suppressible: a file
#: that cannot be parsed cannot be linted, which is itself a finding.
PARSE_ERROR_RULE = "E999"

#: Pragma hygiene findings (unknown/malformed ids) carry this rule id.
PRAGMA_RULE = "PRG001"

_PRAGMA = re.compile(
    r"#\s*simlint:\s*(?P<kind>skip-file|disable)(?P<tail>[^\r\n]*)"
)
_RULE_ID = re.compile(r"^[A-Za-z]{1,4}\d{0,4}$")

#: ``skip-file`` must appear in the first N lines (prevents a stray
#: pragma deep in a file from silently excluding it).
_SKIP_FILE_WINDOW = 10


@dataclass(frozen=True, order=True)
class SuppressedFinding:
    finding: Finding
    reason: str = ""


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[SuppressedFinding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: list[str] = field(default_factory=list)
    #: raw deep-pass findings that survived baseline + suppression
    #: (dicts with entry/chain/site detail; see repro.analysis.flow).
    flow: list[dict] = field(default_factory=list)
    #: deep findings accepted by the baseline, with justifications.
    baselined: list[dict] = field(default_factory=list)
    #: analysis-cache statistics (file_hits/file_misses/run_hit).
    analysis_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))


def _known_rule_ids() -> set[str]:
    return {rule.id for rule in ALL_RULES} | {PARSE_ERROR_RULE, PRAGMA_RULE}


def _parse_disable_tail(
    tail: str,
) -> tuple[set[str] | None, str, list[str]]:
    """``(suppressed ids | None for blanket, reason, problems)`` for the
    text after ``disable`` in a pragma."""
    rules_part, _sep, reason = tail.partition("--")
    rules_part = rules_part.strip()
    reason = reason.strip()
    if not rules_part:
        return None, reason, []  # blanket disable
    if not rules_part.startswith("="):
        return (
            set(),
            reason,
            [
                "malformed pragma: expected '=RULE[,RULE...]' after "
                f"'disable', got {rules_part!r}"
            ],
        )
    ids: set[str] = set()
    problems: list[str] = []
    known = _known_rule_ids()
    for token in rules_part[1:].split(","):
        token = token.strip()
        if not token:
            problems.append("malformed pragma: empty rule id in disable list")
            continue
        upper = token.upper()
        if not _RULE_ID.match(upper):
            problems.append(
                f"malformed pragma: {token!r} is not a rule id"
            )
            continue
        if upper not in known:
            problems.append(
                f"pragma disables unknown rule {upper!r} (typo?); it has "
                f"no effect"
            )
        ids.add(upper)
    return ids, reason, problems


def _comment_lines(source: str) -> list[tuple[int, str]]:
    """(line, comment text) for every real ``#`` comment.  Tokenizing
    keeps pragma text inside docstrings/strings from being treated as
    a pragma; on a tokenization error fall back to whole lines (the
    old behavior) rather than losing suppressions."""
    try:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):
        return list(enumerate(source.splitlines(), start=1))


def _parse_pragmas_full(
    source: str,
) -> tuple[
    bool, dict[int, set[str] | None], dict[int, str], list[tuple[int, str]]
]:
    """(skip_file, line -> suppressed ids (None = all), line -> reason,
    [(line, pragma problem)])."""
    skip_file = False
    suppressions: dict[int, set[str] | None] = {}
    reasons: dict[int, str] = {}
    problems: list[tuple[int, str]] = []
    for lineno, line in _comment_lines(source):
        match = _PRAGMA.search(line)
        if match is None:
            continue
        if match.group("kind") == "skip-file":
            if lineno <= _SKIP_FILE_WINDOW:
                skip_file = True
            continue
        ids, reason, line_problems = _parse_disable_tail(match.group("tail"))
        problems.extend((lineno, msg) for msg in line_problems)
        if ids is None:
            suppressions[lineno] = None  # blanket disable
        elif suppressions.get(lineno, set()) is not None:
            suppressions[lineno] = (suppressions.get(lineno) or set()) | ids
        if reason:
            reasons[lineno] = reason
    return skip_file, suppressions, reasons, problems


def _parse_pragmas(
    source: str,
) -> tuple[bool, dict[int, set[str] | None], dict[int, str]]:
    """(skip_file, suppressions, reasons) — problem-free view, used by
    the deep pass's extractor to honor site-level suppressions."""
    skip_file, suppressions, reasons, _problems = _parse_pragmas_full(source)
    return skip_file, suppressions, reasons


def _in_scope(path: str) -> bool:
    parts = Path(path).parts
    return bool(SCOPED_DIRS.intersection(parts))


def _make_context(path: str, source: str) -> FileContext | Finding:
    """Parse one file; a syntax error becomes an E999 finding."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            path,
            exc.lineno or 1,
            (exc.offset or 0) + 1,
            PARSE_ERROR_RULE,
            f"file does not parse: {exc.msg}",
        )
    skip_file, suppressions, reasons, problems = _parse_pragmas_full(source)
    return FileContext(
        path=path,
        source=source,
        tree=tree,
        in_scope=_in_scope(path),
        skip_file=skip_file,
        suppressions=suppressions,
        reasons=reasons,
        pragma_findings=[
            Finding(path, line, 1, PRAGMA_RULE, message)
            for line, message in problems
        ],
    )


def _is_deep(rule: Rule) -> bool:
    return bool(getattr(rule, "deep", False))


def _file_rule_task(
    path: str, source: str, rule_ids: Sequence[str]
) -> list[Finding]:
    """Pool task: run the selected single-file rules over one source.

    Re-parses in the worker (sources are strings, contexts are not
    picklable) and returns *unrouted* findings — the parent owns
    suppression, so pragma handling stays in one place.
    """
    made = _make_context(path, source)
    if isinstance(made, Finding) or made.skip_file:
        return []
    wanted = set(rule_ids)
    out: list[Finding] = []
    for rule in ALL_RULES:
        if rule.id not in wanted or isinstance(rule, ProjectRule):
            continue
        if rule.scoped and not made.in_scope:
            continue
        out.extend(rule.check(made))
    return out


def _run_rules(
    ctxs: list[FileContext],
    rules: Sequence[Rule],
    pre_findings: list[Finding],
    *,
    deep_findings: Sequence[Finding] = (),
    pool=None,
) -> LintResult:
    exec_rules = [r for r in rules if not _is_deep(r)]
    result = LintResult(
        findings=list(pre_findings),
        files_scanned=len(ctxs) + len(pre_findings),
        rules_run=[r.id for r in rules],
    )
    by_path = {ctx.path: ctx for ctx in ctxs}
    live = [ctx for ctx in ctxs if not ctx.skip_file]

    def route(finding: Finding) -> None:
        ctx = by_path.get(finding.path)
        if ctx is not None:
            if ctx.skip_file:
                return
            suppressed = ctx.suppressions.get(finding.line, "missing")
            if suppressed is None or (
                isinstance(suppressed, set) and finding.rule in suppressed
            ):
                result.suppressed.append(
                    SuppressedFinding(
                        finding, ctx.reasons.get(finding.line, "")
                    )
                )
                return
        result.findings.append(finding)

    file_rules = [r for r in exec_rules if not isinstance(r, ProjectRule)]
    if pool is not None and getattr(pool, "jobs", 1) > 1 and len(live) > 1:
        rule_ids = [r.id for r in file_rules]
        raw_lists = pool.starmap(
            _file_rule_task,
            [(ctx.path, ctx.source, rule_ids) for ctx in live],
        )
        for raw in raw_lists:
            for finding in raw:
                route(finding)
    else:
        for ctx in live:
            for rule in file_rules:
                if rule.scoped and not ctx.in_scope:
                    continue
                for finding in rule.check(ctx):
                    route(finding)
    if any(r.id == PRAGMA_RULE for r in rules):
        for ctx in live:
            for finding in ctx.pragma_findings:
                route(finding)
    for rule in exec_rules:
        if isinstance(rule, ProjectRule):
            for finding in rule.check_project(live):
                route(finding)
    for finding in deep_findings:
        route(finding)
    result.findings = sorted(set(result.findings))
    result.suppressed = sorted(set(result.suppressed))
    return result


def lint_sources(
    sources: dict[str, str],
    *,
    select: list[str] | None = None,
    ignore: list[str] | None = None,
    deep: bool = False,
    pool=None,
    cache_dir: str | Path | None = None,
    baseline_entries: list[dict] | None = None,
) -> LintResult:
    """Lint in-memory sources (path -> text).  Test/fixture entry point;
    paths behave like repo-relative paths for scoping purposes.

    ``deep=True`` additionally runs the whole-program FLOW pass.
    ``pool`` (a SupervisedPool) parallelizes per-file rules and deep
    extraction; findings are sorted, so output is identical at any
    ``--jobs``.  ``cache_dir`` enables the content-addressed analysis
    cache; ``baseline_entries`` (see :mod:`repro.analysis.baseline`)
    accept known deep findings with justifications.
    """
    rules = resolve_selection(select, ignore)
    ctxs: list[FileContext] = []
    errors: list[Finding] = []
    for path, source in sorted(sources.items()):
        made = _make_context(path, source)
        if isinstance(made, Finding):
            errors.append(made)
        else:
            ctxs.append(made)

    deep_findings: list[Finding] = []
    flow_kept: list[dict] = []
    baselined: list[dict] = []
    stats: dict = {}
    if deep:
        from repro.analysis.baseline import apply_baseline
        from repro.analysis.flow import analyze_sources

        raw, stats = analyze_sources(
            {ctx.path: ctx.source for ctx in ctxs},
            cache_dir=cache_dir,
            pool=pool,
        )
        selected = {r.id for r in rules}
        raw = [f for f in raw if f["rule"] in selected]
        flow_kept, baselined = apply_baseline(raw, baseline_entries or [])
        deep_findings = [
            Finding(f["path"], f["line"], 1, f["rule"], f["message"])
            for f in flow_kept
        ]

    result = _run_rules(
        ctxs, rules, errors, deep_findings=deep_findings, pool=pool
    )
    if deep:
        final = set(result.findings)
        result.flow = [
            f
            for f in flow_kept
            if Finding(f["path"], f["line"], 1, f["rule"], f["message"])
            in final
        ]
        result.baselined = baselined
        result.analysis_stats = stats
    return result


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files or directories),
    deterministic order, ``__pycache__``/hidden dirs skipped."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            out.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                parts = sub.relative_to(path).parts
                if any(
                    p == "__pycache__" or p.startswith(".") for p in parts
                ):
                    continue
                out.append(sub)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    # stable de-dup (a file passed twice, or a file inside a passed dir)
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in out:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _display_path(path: Path) -> str:
    try:
        rel = path.resolve().relative_to(Path.cwd().resolve())
        return rel.as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: list[str] | None = None,
    ignore: list[str] | None = None,
    deep: bool = False,
    pool=None,
    cache_dir: str | Path | None = None,
    baseline_entries: list[dict] | None = None,
) -> LintResult:
    """Lint files/directories on disk.  Raises ``FileNotFoundError``
    for a missing path and ``ValueError`` for an unknown rule id."""
    files = iter_python_files(paths)
    sources: dict[str, str] = {}
    for file in files:
        sources[_display_path(file)] = file.read_text(encoding="utf-8")
    return lint_sources(
        sources,
        select=select,
        ignore=ignore,
        deep=deep,
        pool=pool,
        cache_dir=cache_dir,
        baseline_entries=baseline_entries,
    )
