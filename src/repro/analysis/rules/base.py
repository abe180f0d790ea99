"""Rule plumbing shared by every simlint rule module.

A *file rule* (:class:`Rule`) sees one parsed module at a time; a
*project rule* (:class:`ProjectRule`) sees every parsed module in the
run at once and can therefore check cross-file contracts such as
"every concrete workload is exported from the package ``__all__``".

Rules yield :class:`Finding` objects; the engine owns suppression
(``# simlint: disable=RULE``), selection (``--select``/``--ignore``)
and ordering, so rule code stays a pure AST query.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "ProjectRule",
    "dotted_name",
    "exception_names",
    "handler_reraises",
    "SCOPED_DIRS",
]

#: Directories whose code runs inside (or feeds) the discrete-event
#: simulation.  Scoped rules (OBS) only apply here: a bare print in,
#: say, the CLI is harmless, but inside these packages it interleaves
#: across workers and bypasses the trace bus.  Every other family,
#: ORD included, applies to every linted file.
SCOPED_DIRS = frozenset(
    {"sim", "htm", "workloads", "adversary", "faults", "distributions"}
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str


@dataclass
class FileContext:
    """A parsed module plus the metadata rules need.

    ``path`` is the display (repo-relative, posix) path; ``in_scope``
    says whether the file lives under a simulation-critical directory
    (see :data:`SCOPED_DIRS`).
    """

    path: str
    source: str
    tree: ast.Module
    in_scope: bool = False
    #: line -> set of suppressed rule ids
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: line -> justification text after ``--`` in the pragma
    reasons: dict[int, str] = field(default_factory=dict)
    #: PRG001 findings for unknown/malformed pragmas (engine-produced)
    pragma_findings: list[Finding] = field(default_factory=list)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            self.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            rule,
            message,
        )


class Rule:
    """A single-file AST rule."""

    id: str = ""
    summary: str = ""
    rationale: str = ""
    #: True -> only applied to files under :data:`SCOPED_DIRS`.
    scoped: bool = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.id}>"


class ProjectRule(Rule):
    """A rule that needs the whole parsed tree (cross-file contracts)."""

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        return iter(())

    def check_project(
        self, ctxs: Iterable[FileContext]
    ) -> Iterator[Finding]:
        raise NotImplementedError


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def exception_names(type_node: ast.AST | None) -> list[str]:
    """Last-component class names an ``except`` clause catches."""
    if type_node is None:
        return []
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    names: list[str] = []
    for node in nodes:
        dotted = dotted_name(node)
        if dotted:
            names.append(dotted.rsplit(".", 1)[-1])
    return names


def handler_reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler body contains a bare ``raise`` (the caught
    exception keeps propagating, so nothing is swallowed)."""
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )
