"""simlint engine: file discovery, parsing, suppression, rule dispatch.

The engine parses every target file once, runs the single-file rules,
then hands the whole parsed set to the project rules (cross-file
contracts) and, when a FLOW rule is selected, to the whole-program
pass (:mod:`repro.analysis.flow`): call-graph purity inference.

Suppression has one form, line-scoped and per-rule::

    deadline = time.monotonic() + t  # simlint: disable=FLOW001 -- watchdog

``# simlint: disable=FLOW001,ORD001`` suppresses several; spaces
around ``=`` and the commas are tolerated.  The text after ``--`` is
the justification and ``--show-suppressed`` prints it, so suppressions
stay auditable.  Any other ``# simlint:`` comment, or a pragma naming
an unknown rule id, is itself a finding (``PRG001``) — silently inert
suppressions are how pragma ledgers rot.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.flow import analyze
from repro.analysis.rules import (
    ALL_RULES,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    SCOPED_DIRS,
    resolve_selection,
)
from repro.analysis.rules.flow import FlowRuleInfo

__all__ = ["LintResult", "SuppressedFinding", "lint_paths", "lint_sources"]

#: Rule id used for files that do not parse.  Not suppressible: a file
#: that cannot be parsed cannot be linted, which is itself a finding.
PARSE_ERROR_RULE = "E999"

#: Pragma hygiene findings (unknown/malformed ids) carry this rule id.
PRAGMA_RULE = "PRG001"

_PRAGMA = re.compile(r"#\s*simlint:(?P<tail>[^\r\n]*)")
_RULE_ID = re.compile(r"^[A-Za-z]{1,4}\d{0,4}$")


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
    #: raw FLOW findings that survived suppression (dicts with
    #: entry/chain/site detail; see repro.analysis.flow).
    flow: list[dict] = field(default_factory=list)

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


def _parse_pragma(text: str) -> tuple[set[str], str, list[str]]:
    """``(suppressed ids, reason, problems)`` for the text after
    ``simlint:`` in a comment."""
    body, _sep, reason = text.partition("--")
    keyword, eq, rules_part = body.partition("=")
    reason = reason.strip()
    if keyword.strip() != "disable" or not eq:
        return (
            set(),
            reason,
            [
                "malformed pragma: expected 'disable=RULE[,RULE...]', "
                f"got {body.strip()!r}"
            ],
        )
    ids: set[str] = set()
    problems: list[str] = []
    known = _known_rule_ids()
    for token in rules_part.split(","):
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


def _parse_pragmas(
    source: str,
) -> tuple[dict[int, set[str]], dict[int, str], list[tuple[int, str]]]:
    """(line -> suppressed ids, line -> reason, [(line, pragma problem)])."""
    suppressions: dict[int, set[str]] = {}
    reasons: dict[int, str] = {}
    problems: list[tuple[int, str]] = []
    for lineno, line in _comment_lines(source):
        match = _PRAGMA.search(line)
        if match is None:
            continue
        ids, reason, line_problems = _parse_pragma(match.group("tail"))
        problems.extend((lineno, msg) for msg in line_problems)
        suppressions.setdefault(lineno, set()).update(ids)
        if reason:
            reasons[lineno] = reason
    return suppressions, reasons, problems


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
    suppressions, reasons, problems = _parse_pragmas(source)
    return FileContext(
        path=path,
        source=source,
        tree=tree,
        in_scope=_in_scope(path),
        suppressions=suppressions,
        reasons=reasons,
        pragma_findings=[
            Finding(path, line, 1, PRAGMA_RULE, message)
            for line, message in problems
        ],
    )


def _run_rules(
    ctxs: list[FileContext],
    rules: Sequence[Rule],
    pre_findings: list[Finding],
    flow_findings: Sequence[Finding],
    flow_sites: Sequence[dict],
) -> LintResult:
    result = LintResult(
        findings=list(pre_findings),
        files_scanned=len(ctxs) + len(pre_findings),
    )
    by_path = {ctx.path: ctx for ctx in ctxs}

    def route(finding: Finding) -> None:
        ctx = by_path.get(finding.path)
        if ctx is not None and finding.rule in ctx.suppressions.get(
            finding.line, ()
        ):
            reason = ctx.reasons.get(finding.line, "")
            result.suppressed.append(SuppressedFinding(finding, reason))
        else:
            result.findings.append(finding)

    file_rules = [
        r for r in rules if not isinstance(r, (ProjectRule, FlowRuleInfo))
    ]
    for ctx in ctxs:
        for rule in file_rules:
            if rule.scoped and not ctx.in_scope:
                continue
            for finding in rule.check(ctx):
                route(finding)
    if any(r.id == PRAGMA_RULE for r in rules):
        for ctx in ctxs:
            for finding in ctx.pragma_findings:
                route(finding)
    for rule in rules:
        if isinstance(rule, ProjectRule):
            for finding in rule.check_project(ctxs):
                route(finding)
    for finding in flow_findings:
        route(finding)
    for site in flow_sites:  # stopped by a pragma at the effect's site
        finding = Finding(
            site["path"], site["line"], 1, site["rule"], site["detail"]
        )
        reason = by_path[site["path"]].reasons.get(site["line"], "")
        result.suppressed.append(SuppressedFinding(finding, reason))
    result.findings = sorted(set(result.findings))
    result.suppressed = sorted(set(result.suppressed))
    return result


def _flow_finding(raw: dict) -> Finding:
    return Finding(raw["path"], raw["line"], 1, raw["rule"], raw["message"])


def lint_sources(
    sources: dict[str, str],
    *,
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> LintResult:
    """Lint in-memory sources (path -> text).  Test/fixture entry point;
    paths behave like repo-relative paths for scoping purposes.

    When a FLOW rule is selected the whole-program pass runs too.  A
    pragma that stopped a FLOW effect at its site is listed under
    ``suppressed``.
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

    flow_ids = {r.id for r in rules if isinstance(r, FlowRuleInfo)}
    raw: list[dict] = []
    sites: list[dict] = []
    if flow_ids:
        raw, sites = analyze(ctxs)
    raw = [f for f in raw if f["rule"] in flow_ids]
    result = _run_rules(
        ctxs,
        rules,
        errors,
        [_flow_finding(f) for f in raw],
        [site for site in sites if site["rule"] in flow_ids],
    )
    final = set(result.findings)
    result.flow = [f for f in raw if _flow_finding(f) in final]
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
) -> LintResult:
    """Lint files/directories on disk.  Raises ``FileNotFoundError``
    for a missing path and ``ValueError`` for an unknown rule id."""
    files = iter_python_files(paths)
    sources: dict[str, str] = {}
    for file in files:
        sources[_display_path(file)] = file.read_text(encoding="utf-8")
    return lint_sources(sources, select=select, ignore=ignore)
