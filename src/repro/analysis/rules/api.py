"""API — interface-hygiene rules.

Mutable default arguments alias state across calls (a policy cache
default shared by every machine instance corrupts independence between
experiment cells); ``object.__setattr__`` outside construction mutates
frozen dataclasses that the rest of the code is entitled to treat as
value objects (hashable, safely shared across threads of the sweep).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.rules.base import (
    FileContext,
    Finding,
    Rule,
    dotted_name,
)

__all__ = ["MutableDefaultRule", "FrozenMutationRule"]

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
     "OrderedDict"}
)

#: Methods where object.__setattr__ on a frozen dataclass is sanctioned.
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__setstate__"}
)


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is not None and dotted.rsplit(".", 1)[-1] in _MUTABLE_CALLS:
            return True
    return False


class MutableDefaultRule(Rule):
    id = "API001"
    summary = "mutable default argument"
    rationale = (
        "a mutable default is evaluated once and shared by every call; "
        "state leaks across experiment cells and replays.  Default to "
        "None and construct inside the body."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield ctx.finding(
                        default,
                        self.id,
                        "mutable default argument is shared across calls; "
                        "use None and construct in the body",
                    )


class FrozenMutationRule(Rule):
    id = "API002"
    summary = "object.__setattr__ outside construction"
    rationale = (
        "frozen dataclasses (ConflictRequest, FaultPlan, EstimateSnapshot) "
        "are shared as immutable values; object.__setattr__ outside "
        "__init__/__post_init__ silently breaks that contract."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        visitor = _SetattrVisitor()
        visitor.visit(ctx.tree)
        for node in visitor.hits:
            yield ctx.finding(
                node,
                self.id,
                "object.__setattr__ outside __init__/__post_init__ "
                "mutates a frozen value object; construct a new "
                "instance instead (dataclasses.replace)",
            )


class _SetattrVisitor(ast.NodeVisitor):
    """Tracks whether the innermost enclosing function is a constructor."""

    def __init__(self) -> None:
        self.ctor_stack: list[bool] = [False]
        self.hits: list[ast.Call] = []

    def _visit_def(self, node: ast.AST) -> None:
        self.ctor_stack.append(node.name in _CONSTRUCTION_METHODS)
        self.generic_visit(node)
        self.ctor_stack.pop()

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_Call(self, node: ast.Call) -> None:
        if (
            dotted_name(node.func) == "object.__setattr__"
            and not self.ctor_stack[-1]
        ):
            self.hits.append(node)
        self.generic_visit(node)
