"""POL — project-contract rules (cross-file).

The simulator is extended by subclassing three protocol roots —
:class:`~repro.htm.conflict_policy.CyclePolicy`,
:class:`~repro.workloads.base.Workload` (and its ``Operation``), and
:class:`~repro.faults.injectors.NullInjector` — and registering the
subclass (``policy_from_name``, the workloads package ``__all__``).
A subclass that misspells a hook or forgets registration fails
*silently*: the base-class default runs instead, and an experiment
quietly measures the wrong thing.  These rules make the protocol
machine-checked.

The class graph is built textually (base names within the linted
files), which is exactly right for a project-local linter: every
protocol root lives in this repository.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.rules.base import FileContext, Finding, ProjectRule

__all__ = [
    "ProtocolMethodsRule",
    "RegistryNameRule",
    "RegistrationRule",
    "InjectorHookRule",
]

#: protocol root -> methods every concrete descendant must implement
CONTRACTS: dict[str, tuple[str, ...]] = {
    "CyclePolicy": ("decide",),
    "Workload": ("setup", "next_op", "tuned_delay_cycles"),
    "Operation": ("body",),
}

#: roots whose concrete descendants need their own ``name`` class attr
NAMED_ROOTS = ("CyclePolicy", "Workload")

#: fallback hook surface for NullInjector when the class itself is not
#: among the linted files (e.g. unit-test fixtures)
DEFAULT_INJECTOR_HOOKS = frozenset(
    {
        "arm",
        "on_begin_tx",
        "on_end_tx",
        "stall_cycles",
        "noisy_context",
        "noisy_commit_duration",
    }
)

_ABSTRACT_DECORATORS = {"abstractmethod", "abstractproperty"}


@dataclass
class ClassInfo:
    name: str
    bases: list[str]
    methods: set[str] = field(default_factory=set)
    class_attrs: set[str] = field(default_factory=set)
    #: class-level ``name = "..."`` literal, if any
    name_value: str | None = None
    has_abstract: bool = False
    path: str = ""
    lineno: int = 0
    node: ast.ClassDef | None = None


def _last(name_node: ast.AST) -> str | None:
    if isinstance(name_node, ast.Name):
        return name_node.id
    if isinstance(name_node, ast.Attribute):
        return name_node.attr
    return None


def _collect_classes(ctxs: Iterable[FileContext]) -> dict[str, ClassInfo]:
    classes: dict[str, ClassInfo] = {}
    for ctx in ctxs:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = ClassInfo(
                name=node.name,
                bases=[b for b in map(_last, node.bases) if b],
                path=ctx.path,
                lineno=node.lineno,
                node=node,
            )
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods.add(stmt.name)
                    for deco in stmt.decorator_list:
                        if _last(deco) in _ABSTRACT_DECORATORS:
                            info.has_abstract = True
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            info.class_attrs.add(target.id)
                            if target.id == "name" and isinstance(
                                stmt.value, ast.Constant
                            ) and isinstance(stmt.value.value, str):
                                info.name_value = stmt.value.value
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    info.class_attrs.add(stmt.target.id)
                    if stmt.target.id == "name" and isinstance(
                        stmt.value, ast.Constant
                    ) and isinstance(stmt.value.value, str):
                        info.name_value = stmt.value.value
            # first definition wins (re-definitions only occur in tests)
            classes.setdefault(node.name, info)
    return classes


def _ancestor_chain(
    info: ClassInfo, classes: dict[str, ClassInfo]
) -> list[ClassInfo]:
    """``info`` plus every project-visible ancestor (cycle-safe)."""
    chain: list[ClassInfo] = []
    seen: set[str] = set()
    frontier = [info]
    while frontier:
        cur = frontier.pop(0)
        if cur.name in seen:
            continue
        seen.add(cur.name)
        chain.append(cur)
        for base in cur.bases:
            if base in classes:
                frontier.append(classes[base])
    return chain


def _descends_from(
    info: ClassInfo, root: str, classes: dict[str, ClassInfo]
) -> bool:
    if info.name == root:
        return False
    chain = _ancestor_chain(info, classes)
    return root in {c.name for c in chain[1:]} or any(
        root in c.bases for c in chain
    )


def _is_concrete(info: ClassInfo) -> bool:
    return not info.has_abstract and not info.name.startswith("_")


class ProtocolMethodsRule(ProjectRule):
    id = "POL001"
    summary = "protocol subclass missing a required method"
    rationale = (
        "a CyclePolicy without decide(), a Workload without "
        "setup/next_op/tuned_delay_cycles, or an Operation without "
        "body() either dies at instantiation deep inside a sweep or — "
        "worse — inherits a default and silently measures nothing."
    )

    def check_project(
        self, ctxs: Iterable[FileContext]
    ) -> Iterator[Finding]:
        classes = _collect_classes(ctxs)
        for info in classes.values():
            if not _is_concrete(info):
                continue
            for root, required in CONTRACTS.items():
                if not _descends_from(info, root, classes):
                    continue
                defined: set[str] = set()
                for cls in _ancestor_chain(info, classes):
                    if cls.name == root:
                        continue  # the root's own defs are abstract stubs
                    defined |= cls.methods | cls.class_attrs
                missing = [m for m in required if m not in defined]
                if missing and info.node is not None:
                    yield Finding(
                        info.path,
                        info.lineno,
                        1,
                        self.id,
                        f"{info.name} ({root} subclass) does not implement "
                        f"required protocol method(s): "
                        f"{', '.join(missing)}",
                    )


class RegistryNameRule(ProjectRule):
    id = "POL002"
    summary = "protocol subclass without its own registry `name`"
    rationale = (
        "policies and workloads are addressed by their `name` class "
        "attribute (reports, factories, stats digests); inheriting the "
        "root's placeholder makes two series indistinguishable in "
        "every table."
    )

    def check_project(
        self, ctxs: Iterable[FileContext]
    ) -> Iterator[Finding]:
        classes = _collect_classes(ctxs)
        for info in classes.values():
            if not _is_concrete(info):
                continue
            for root in NAMED_ROOTS:
                if not _descends_from(info, root, classes):
                    continue
                chain = _ancestor_chain(info, classes)
                has_name = any(
                    "name" in cls.class_attrs
                    for cls in chain
                    if cls.name != root
                )
                if not has_name:
                    yield Finding(
                        info.path,
                        info.lineno,
                        1,
                        self.id,
                        f"{info.name} ({root} subclass) must define its own "
                        f"`name` class attribute (the root's placeholder "
                        f"would collide in reports and factories)",
                    )


class RegistrationRule(ProjectRule):
    id = "POL003"
    summary = "concrete subclass not registered"
    rationale = (
        "an unregistered workload cannot be reached from the package "
        "API, and a policy name absent from policy_from_name cannot be "
        "selected by any experiment spec — dead extension code."
    )

    def check_project(
        self, ctxs: Iterable[FileContext]
    ) -> Iterator[Finding]:
        ctx_list = list(ctxs)
        classes = _collect_classes(ctx_list)
        yield from self._check_workload_exports(classes, ctx_list)
        yield from self._check_policy_factory(classes, ctx_list)

    # -- workloads must be exported from the package __init__ -------------
    def _check_workload_exports(
        self, classes: dict[str, ClassInfo], ctxs: list[FileContext]
    ) -> Iterator[Finding]:
        init_ctx = next(
            (
                c
                for c in ctxs
                if c.path.replace("\\", "/").endswith("workloads/__init__.py")
            ),
            None,
        )
        if init_ctx is None:
            return
        exported: set[str] = set()
        for node in ast.walk(init_ctx.tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    exported = {
                        e.value
                        for e in node.value.elts
                        if isinstance(e, ast.Constant)
                        and isinstance(e.value, str)
                    }
        for info in classes.values():
            if not _is_concrete(info):
                continue
            if "/workloads/" not in info.path.replace("\\", "/"):
                continue
            if not _descends_from(info, "Workload", classes):
                continue
            if info.name not in exported:
                yield Finding(
                    info.path,
                    info.lineno,
                    1,
                    self.id,
                    f"workload {info.name} is not exported in "
                    f"repro/workloads/__init__.py __all__ — unreachable "
                    f"from the package API",
                )

    # -- policy `name`s must appear in the policy_from_name factory --------
    def _check_policy_factory(
        self, classes: dict[str, ClassInfo], ctxs: list[FileContext]
    ) -> Iterator[Finding]:
        factory_ctx: FileContext | None = None
        factory_consts: set[str] = set()
        for ctx in ctxs:
            for node in ast.walk(ctx.tree):
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name == "policy_from_name"
                ):
                    factory_ctx = ctx
                    factory_consts = {
                        n.value
                        for n in ast.walk(node)
                        if isinstance(n, ast.Constant)
                        and isinstance(n.value, str)
                    }
        if factory_ctx is None:
            return
        for info in classes.values():
            if not _is_concrete(info) or info.path != factory_ctx.path:
                continue
            if not _descends_from(info, "CyclePolicy", classes):
                continue
            if info.name_value is not None and (
                info.name_value not in factory_consts
            ):
                yield Finding(
                    info.path,
                    info.lineno,
                    1,
                    self.id,
                    f"policy {info.name} (name={info.name_value!r}) is not "
                    f"selectable via policy_from_name — register it or "
                    f"mark the class private",
                )


class InjectorHookRule(ProjectRule):
    id = "POL004"
    summary = "fault injector defines an unknown hook"
    rationale = (
        "the machine calls injector hooks by name; a typo "
        "(on_begin_txn) is not an error — the fault simply never "
        "fires and the robustness sweep silently measures a clean run."
    )

    def check_project(
        self, ctxs: Iterable[FileContext]
    ) -> Iterator[Finding]:
        classes = _collect_classes(ctxs)
        root = classes.get("NullInjector")
        hooks = (
            {m for m in root.methods if not m.startswith("_")}
            if root is not None
            else set(DEFAULT_INJECTOR_HOOKS)
        )
        for info in classes.values():
            if info.name == "NullInjector":
                continue
            if not _descends_from(info, "NullInjector", classes):
                continue
            for method in sorted(info.methods):
                if method.startswith("_"):
                    continue
                if method not in hooks:
                    yield Finding(
                        info.path,
                        info.lineno,
                        1,
                        self.id,
                        f"injector {info.name} defines {method}() which is "
                        f"not part of the injector hook protocol "
                        f"({', '.join(sorted(hooks))}) — typo'd hooks "
                        f"silently never fire",
                    )
