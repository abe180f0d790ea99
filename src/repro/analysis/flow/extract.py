"""Per-module extraction for the FLOW analysis.

One parse of one file produces a **module summary**: every function
with its intrinsic effect sites (wall-clock reads and filesystem
writes) and its outgoing call references (still symbolic — resolution
needs the whole project), plus the module's imports and classes.
The module's own top-level statements are scanned like a function
body, as the pseudo-function ``<module>``: import-time code runs on
every import, so it is an entry point like any public function.

Pragmas are honored at the *site*: an intrinsic effect whose line
carries ``# simlint: disable=FLOW001`` (the effect's FLOW id, or the
matching per-file id where one exists) is a documented exception and
never enters the graph, so one justified site does not taint every
entry point that reaches it.  The summary lists
each such site under ``suppressed`` so the report can show it.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.rules.base import dotted_name

__all__ = ["extract_module", "ENTRY_DIRS", "MODULE_BODY"]

#: Directories whose modules hold sim-critical *entry points*: the
#: simulation packages, ``core`` (closed-form math feeding every
#: table), and the experiment and synthetic drivers.
ENTRY_DIRS = frozenset(
    {"sim", "htm", "core", "workloads", "adversary", "faults",
     "distributions", "experiments", "synthetic"}
)

#: Qualified name of a module's import-time body.
MODULE_BODY = "<module>"

#: Effect -> the FLOW rule it feeds, then any per-file rule whose
#: line-scoped suppression also sanctions the site.
_SITE_SUPPRESS = {
    "wall-clock": ("FLOW001",),
    "fs-write": ("FLOW005", "ERR004"),
}

#: ``module.function`` suffixes that read the host wall clock.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: distinctive write-method names.  Deliberately excludes the pathlib
#: names that collide with ordinary methods on project objects
#: (``touch`` is the LRU cache's recency bump, ``unlink`` a list op);
#: those writes are still caught via the ``os.*``/``shutil.*`` forms.
_FS_SUFFIXES = frozenset({"write_text", "write_bytes", "rmtree"})
_FS_FULL = frozenset(
    {
        "os.remove", "os.unlink", "os.rename", "os.replace", "os.makedirs",
        "os.rmdir", "os.truncate", "shutil.move", "shutil.copy",
        "shutil.copy2", "shutil.copyfile", "shutil.copytree",
    }
)
_WRITE_MODES = re.compile(r"[wax+]")


def _suffixes(dotted: str) -> set[str]:
    parts = dotted.split(".")
    return {".".join(parts[i:]) for i in range(len(parts))}


def in_entry_scope(path: str) -> bool:
    """True when ``path`` lives under a sim-critical directory."""
    return bool(ENTRY_DIRS.intersection(path.split("/")))


class _ModuleScanner:
    """Walks one parsed module, producing the summary dict."""

    def __init__(
        self,
        path: str,
        module: str,
        tree: ast.Module,
        suppressions: dict[int, set[str]],
    ) -> None:
        self.path = path
        self.module = module
        self.tree = tree
        self.suppressions = suppressions
        self.imports: dict[str, str] = {}
        self.local_defs: set[str] = set()
        self.functions: dict[str, dict] = {}
        self.classes: dict[str, dict] = {}
        self.suppressed: list[dict] = []
        is_init = path.endswith("__init__.py")
        self.package = module if is_init else module.rpartition(".")[0]

    # -- imports ------------------------------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    up = self.package.split(".") if self.package else []
                    up = up[: len(up) - (node.level - 1)] if node.level > 1 else up
                    base = ".".join(up + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _expand(self, dotted: str) -> str:
        root, sep, rest = dotted.partition(".")
        if root in self.imports:
            target = self.imports[root]
            return f"{target}.{rest}" if rest else target
        if root in self.local_defs:
            return f"{self.module}.{dotted}"
        return dotted

    def _suppressed(self, line: int, effect: str, detail: str) -> bool:
        """True when a pragma on ``line`` sanctions ``effect``; the
        site is then recorded under ``suppressed`` instead."""
        rules = _SITE_SUPPRESS[effect]
        if self.suppressions.get(line, set()).intersection(rules):
            self.suppressed.append(
                {"rule": rules[0], "line": line, "detail": detail}
            )
            return True
        return False

    # -- top-level walk -----------------------------------------------
    def run(self) -> dict:
        self._collect_imports()
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_defs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.local_defs.add(node.name)
        import_time: list[ast.stmt] = []
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(node, prefix="", cls=None)
            elif isinstance(node, ast.ClassDef):
                self._scan_class(node)
            else:
                import_time.append(node)
        self._scan_body(MODULE_BODY, None, 1, import_time, [])
        return {
            "module": self.module,
            "path": self.path,
            "entry_scope": in_entry_scope(self.path),
            "imports": dict(sorted(self.imports.items())),
            "functions": self.functions,
            "classes": self.classes,
            "suppressed": self.suppressed,
        }

    # -- classes ------------------------------------------------------
    def _scan_class(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is not None:
                bases.append(self._expand(dotted))
        info = {"bases": bases, "methods": [], "attr_types": {}, "line": node.lineno}
        self.classes[node.name] = info
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info["methods"].append(sub.name)
                self._scan_function(sub, prefix=f"{node.name}.", cls=node.name)
            # nested classes are rare in this tree; skipped on purpose

    # -- functions ----------------------------------------------------
    def _scan_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        prefix: str,
        cls: str | None,
    ) -> None:
        self._scan_body(
            f"{prefix}{node.name}", cls, node.lineno, node.body,
            node.decorator_list,
        )

    def _scan_body(
        self,
        qual: str,
        cls: str | None,
        line: int,
        body: list[ast.stmt],
        decorators: list[ast.expr],
    ) -> None:
        fn = _FunctionScan(self, qual, cls)
        for deco in decorators:
            target = deco.func if isinstance(deco, ast.Call) else deco
            dotted = dotted_name(target)
            if dotted is not None:
                fn.add_call(
                    {"kind": "name", "ref": self._expand(dotted), "line": line}
                )
        fn.scan_body(body)
        self.functions[qual] = {
            "line": line,
            "public": not any(p.startswith("_") for p in qual.split(".")),
            "intrinsic": sorted(
                fn.intrinsic,
                key=lambda e: (e["effect"], e["line"], e["detail"]),
            ),
            "calls": fn.calls,
        }
        # nested defs become their own nodes, with an edge parent->child
        for child in fn.nested:
            self._scan_function(child, prefix=f"{qual}.", cls=cls)


class _FunctionScan:
    """Statement-ordered scan of one function body (lambdas folded in,
    nested defs deferred to their own nodes)."""

    def __init__(self, mod: _ModuleScanner, qual: str, cls: str | None) -> None:
        self.mod = mod
        self.qual = qual
        self.cls = cls
        self.intrinsic: list[dict] = []
        self.calls: list[dict] = []
        self.nested: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        self.nested_names: dict[str, str] = {}
        #: local name -> expanded ctor dotted name (``m = Machine()``),
        #: so ``m.run()`` resolves as a bound-method call.
        self.instance_types: dict[str, str] = {}
        #: local name -> the reference it is bound to
        #: (``monotonic = time.monotonic``), so ``monotonic()`` is that call.
        self.aliases: dict[str, str] = {}
        self._seen_calls: set[tuple] = set()

    # -- helpers ------------------------------------------------------
    def add_call(self, ref: dict) -> None:
        key = tuple(sorted(ref.items()))
        if key not in self._seen_calls:
            self._seen_calls.add(key)
            self.calls.append(ref)

    def _effect(self, effect: str, node: ast.AST, detail: str) -> None:
        line = getattr(node, "lineno", 1)
        if not self.mod._suppressed(line, effect, detail):
            self.intrinsic.append(
                {"effect": effect, "line": line, "detail": detail}
            )

    def _dotted(self, expr: ast.AST) -> str | None:
        """:func:`dotted_name` with a local alias replaced by its target."""
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        root, sep, rest = dotted.partition(".")
        target = self.aliases.get(root)
        return f"{target}{sep}{rest}" if target else dotted

    def _ref_for(self, expr: ast.AST, line: int) -> dict | None:
        """Symbolic call/callback reference for a Name/Attribute chain."""
        dotted = self._dotted(expr)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] in ("self", "cls") and self.cls is not None:
            if len(parts) == 2:
                return {"kind": "self", "cls": self.cls, "method": parts[1],
                        "line": line}
            if len(parts) == 3:
                return {"kind": "attr", "cls": self.cls, "attr": parts[1],
                        "method": parts[2], "line": line}
            return None
        if dotted in self.nested_names:
            return {"kind": "nested", "qual": self.nested_names[dotted],
                    "line": line}
        if len(parts) == 2 and parts[0] in self.instance_types:
            return {"kind": "instance",
                    "cls_ref": self.instance_types[parts[0]],
                    "method": parts[1], "line": line}
        return {"kind": "name", "ref": self.mod._expand(dotted), "line": line}

    # -- statement walk -----------------------------------------------
    def scan_body(self, stmts: list[ast.stmt]) -> None:
        # first pass: nested def names (forward refs in callbacks)
        for node in ast.walk(ast.Module(body=list(stmts), type_ignores=[])):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name not in self.nested_names:
                    self.nested_names[node.name] = f"{self.qual}.{node.name}"
        for stmt in stmts:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested.append(stmt)
            self.add_call(
                {"kind": "nested", "qual": f"{self.qual}.{stmt.name}",
                 "line": stmt.lineno}
            )
            return
        if isinstance(stmt, ast.ClassDef):
            return  # local classes: out of scope for the FLOW analysis
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._scan_assign(stmt)
        self._scan_exprs(stmt)
        for field in ("body", "orelse", "finalbody"):
            for sub in getattr(stmt, field, []):
                self._scan_stmt(sub)
        for handler in getattr(stmt, "handlers", []):
            for sub in handler.body:
                self._scan_stmt(sub)

    def _scan_assign(self, stmt: ast.stmt) -> None:
        value = getattr(stmt, "value", None)
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        for t in targets:
            # self.<attr> = ClassName(...): record the attribute's type
            if (
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                and self.cls is not None
                and isinstance(value, ast.Call)
            ):
                dotted = dotted_name(value.func)
                if dotted is not None:
                    attrs = self.mod.classes.get(self.cls, {}).get(
                        "attr_types", {}
                    )
                    attrs.setdefault(t.attr, self.mod._expand(dotted))
        ref = None
        if value is not None and not isinstance(stmt, ast.AugAssign):
            ref = self._dotted(value)
        for name in names:
            self.aliases.pop(name, None)
            if ref is not None:
                self.aliases[name] = ref
        if value is None or not names:
            return
        if isinstance(value, ast.Call):
            ctor = dotted_name(value.func)
            if ctor is not None:
                expanded = self.mod._expand(ctor)
                for name in names:
                    self.instance_types.setdefault(name, expanded)

    def _scan_exprs(self, stmt: ast.stmt) -> None:
        """Expression-level scan of one statement (not its block bodies;
        lambdas are folded in, nested defs are their own nodes)."""
        blocks: list[list[ast.stmt]] = [
            getattr(stmt, f, []) for f in ("body", "orelse", "finalbody")
        ]
        nested_stmts = {
            id(s) for block in blocks for s in block
        } | {id(s) for h in getattr(stmt, "handlers", []) for s in h.body}

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if id(child) in nested_stmts or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                if isinstance(child, ast.Call):
                    self._scan_call(child)
                walk(child)

        walk(stmt)

    def _scan_call(self, call: ast.Call) -> None:
        dotted = self._dotted(call.func)
        if dotted is None:
            # ``super().meth(...)``: the func is an Attribute over a Call,
            # so it has no dotted name — catch it before bailing out.
            if (
                isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Call)
                and isinstance(call.func.value.func, ast.Name)
                and call.func.value.func.id == "super"
                and self.cls is not None
            ):
                self.add_call(
                    {"kind": "super", "cls": self.cls,
                     "method": call.func.attr, "line": call.lineno}
                )
            return
        expanded = self.mod._expand(dotted)
        sufs = _suffixes(expanded)
        tail = expanded.rsplit(".", 1)[-1]
        # ---- intrinsic effects
        if sufs & _WALL_CLOCK:
            self._effect("wall-clock", call, f"{expanded}()")
        if self._is_fs_write(call, expanded, sufs, tail):
            self._effect("fs-write", call, f"{expanded}(...)")
        # ---- call-graph references
        if isinstance(call.func, ast.Name) and call.func.id == "super":
            pass  # the interesting node is the enclosing attribute call
        else:
            ref = self._ref_for(call.func, call.lineno)
            if ref is not None:
                self.add_call(ref)
        # ---- callback references: function-valued arguments
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                ref = self._ref_for(arg, call.lineno)
                if ref is not None:
                    self.add_call(ref)

    def _is_fs_write(
        self, call: ast.Call, expanded: str, sufs: set[str], tail: str
    ) -> bool:
        if tail in _FS_SUFFIXES:
            return True
        if sufs & _FS_FULL:
            return True
        if expanded in ("open", "io.open"):
            mode = None
            if len(call.args) >= 2:
                mode = call.args[1]
            for kw in call.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                return bool(_WRITE_MODES.search(mode.value))
        return False


def extract_module(
    path: str,
    tree: ast.Module,
    module: str,
    suppressions: dict[int, set[str]],
) -> dict:
    """Summary dict for one parsed module (see module docstring);
    ``suppressions`` maps a line to the rule ids its pragma disables,
    as the engine parses them."""
    return _ModuleScanner(path, module, tree, suppressions).run()
