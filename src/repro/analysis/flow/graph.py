"""Project call graph + effect propagation for the FLOW analysis.

Takes the per-module summaries from :mod:`extract`, resolves the
symbolic call references into a node graph (``module:qualname``),
propagates intrinsic effects to fixpoint, and emits the raw FLOW
findings as plain dicts (the engine applies selection and
suppression).

Everything here is deterministic by construction: modules, functions,
edges and worklists are always iterated in sorted order, and chains
are shortest-path BFS over sorted adjacency, so the same tree always
produces byte-identical findings.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.flow.extract import MODULE_BODY
from repro.analysis.rules.flow import EFFECT_RULES

__all__ = ["ProjectGraph"]

#: human-readable effect names for messages.
_EFFECT_TEXT = {
    "wall-clock": "a wall-clock read",
    "fs-write": "a filesystem write",
}


def _node(module: str, qual: str) -> str:
    return f"{module}:{qual}"


def _pretty(node_id: str) -> str:
    return node_id.replace(":", ".", 1)


class ProjectGraph:
    """Resolved call graph over one set of module summaries."""

    def __init__(self, summaries: list[dict]) -> None:
        self.summaries = {s["module"]: s for s in summaries}
        #: node id -> (module, qual, function info)
        self.functions: dict[str, tuple[str, str, dict]] = {}
        #: (module, class name) -> class info
        self.classes: dict[tuple[str, str], dict] = {}
        for module in sorted(self.summaries):
            summ = self.summaries[module]
            for qual in sorted(summ["functions"]):
                self.functions[_node(module, qual)] = (
                    module, qual, summ["functions"][qual],
                )
            for cls in sorted(summ["classes"]):
                self.classes[(module, cls)] = summ["classes"][cls]
        self.edges: dict[str, list[str]] = {}
        self.effects: dict[str, set[str]] = {}
        self._build_edges()
        self._propagate_effects()

    # -- reference resolution -----------------------------------------
    def _locate_class(self, dotted: str) -> tuple[str, str] | None:
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            rest = ".".join(parts[i:])
            if module in self.summaries and (module, rest) in self.classes:
                return (module, rest)
        return None

    def _method(
        self, module: str, cls: str, meth: str, seen: set | None = None
    ) -> str | None:
        """Resolve a method against a class, walking base classes."""
        seen = seen if seen is not None else set()
        key = (module, cls)
        if key in seen or key not in self.classes:
            return None
        seen.add(key)
        info = self.classes[key]
        if meth in info["methods"]:
            return _node(module, f"{cls}.{meth}")
        for base in info["bases"]:
            loc = self._locate_class(base)
            if loc is not None:
                found = self._method(loc[0], loc[1], meth, seen)
                if found is not None:
                    return found
        return None

    def _resolve_dotted(self, dotted: str, depth: int = 0) -> str | None:
        """Resolve an import-expanded dotted name to a node id."""
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            rest = ".".join(parts[i:])
            if module not in self.summaries:
                continue
            summ = self.summaries[module]
            if rest in summ["functions"]:
                return _node(module, rest)
            if (module, rest) in self.classes:
                return self._method(module, rest, "__init__")
            head, _, tail = rest.partition(".")
            if tail and (module, head) in self.classes:
                return self._method(module, head, tail)
            # one-hop re-export: ``from repro.parallel import ResultCache``
            # where repro/parallel/__init__.py itself imports ResultCache.
            if head in summ["imports"] and depth < 4:
                target = summ["imports"][head]
                expanded = f"{target}.{tail}" if tail else target
                return self._resolve_dotted(expanded, depth + 1)
            return None
        return None

    def resolve(self, module: str, ref: dict) -> str | None:
        """Resolve one symbolic call reference from ``module``."""
        kind = ref["kind"]
        if kind == "name":
            return self._resolve_dotted(ref["ref"])
        if kind == "nested":
            node_id = _node(module, ref["qual"])
            return node_id if node_id in self.functions else None
        if kind == "self":
            return self._method(module, ref["cls"], ref["method"])
        if kind == "super":
            info = self.classes.get((module, ref["cls"]))
            if info is None:
                return None
            for base in info["bases"]:
                loc = self._locate_class(base)
                if loc is not None:
                    found = self._method(loc[0], loc[1], ref["method"])
                    if found is not None:
                        return found
            return None
        if kind == "instance":
            loc = self._locate_class(ref["cls_ref"])
            if loc is None:
                return None
            return self._method(loc[0], loc[1], ref["method"])
        if kind == "attr":
            info = self.classes.get((module, ref["cls"]))
            if info is None:
                return None
            target = info["attr_types"].get(ref["attr"])
            if target is None:
                return None
            loc = self._locate_class(target)
            if loc is None:
                return None
            return self._method(loc[0], loc[1], ref["method"])
        return None

    # -- fixpoints ----------------------------------------------------
    def _build_edges(self) -> None:
        for node_id in sorted(self.functions):
            module, _qual, info = self.functions[node_id]
            targets: set[str] = set()
            for ref in info["calls"]:
                target = self.resolve(module, ref)
                if target is not None and target != node_id:
                    targets.add(target)
            self.edges[node_id] = sorted(targets)

    def _propagate_effects(self) -> None:
        callers: dict[str, set[str]] = {n: set() for n in self.functions}
        for node_id, targets in self.edges.items():
            for target in targets:
                callers[target].add(node_id)
        for node_id, (_m, _q, info) in self.functions.items():
            self.effects[node_id] = {e["effect"] for e in info["intrinsic"]}
        work = deque(sorted(self.functions))
        while work:
            node_id = work.popleft()
            for caller in sorted(callers[node_id]):
                missing = self.effects[node_id] - self.effects[caller]
                if missing:
                    self.effects[caller] |= missing
                    work.append(caller)

    # -- chains -------------------------------------------------------
    def chain(self, entry: str, effect: str) -> list[str] | None:
        """Shortest entry->leaf call chain ending at a node with an
        *intrinsic* occurrence of ``effect`` (BFS, sorted adjacency)."""
        prev: dict[str, str | None] = {entry: None}
        queue = deque([entry])
        while queue:
            node_id = queue.popleft()
            info = self.functions[node_id][2]
            if any(e["effect"] == effect for e in info["intrinsic"]):
                path = [node_id]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return list(reversed(path))
            for target in self.edges[node_id]:
                if target not in prev:
                    prev[target] = node_id
                    queue.append(target)
        return None

    # -- entry points -------------------------------------------------
    def entries(self) -> list[str]:
        """Sim-critical entry points, in entry-scope modules: the
        import-time body, every public function, and every private one
        with an intrinsic effect (a helper reached through a dict or a
        callback is still reached)."""
        return sorted(
            node_id
            for node_id, (module, _qual, info) in self.functions.items()
            if self.summaries[module]["entry_scope"]
            and (info["public"] or info["intrinsic"])
        )

    def _anchor(self, entry: str, chain: list[str], site: dict) -> int:
        """The line a purity finding is reported at: the entry's ``def``,
        or for import-time code the statement that starts the chain."""
        module, qual, info = self.functions[entry]
        if qual != MODULE_BODY:
            return info["line"]
        if len(chain) == 1:
            return site["line"]
        return min(
            ref["line"]
            for ref in info["calls"]
            if self.resolve(module, ref) == chain[1]
        )

    # -- findings -----------------------------------------------------
    def findings(self) -> list[dict]:
        out: list[dict] = []
        for entry in self.entries():
            module = self.functions[entry][0]
            for effect in sorted(self.effects[entry]):
                chain = self.chain(entry, effect)
                if chain is None:  # pragma: no cover - effects imply a chain
                    continue
                leaf_mod, _leaf_qual, leaf_info = self.functions[chain[-1]]
                site = min(
                    (e for e in leaf_info["intrinsic"] if e["effect"] == effect),
                    key=lambda e: (e["line"], e["detail"]),
                )
                leaf_path = self.summaries[leaf_mod]["path"]
                pretty_chain = " -> ".join(_pretty(n) for n in chain)
                message = (
                    f"{_pretty(entry)} can reach {_EFFECT_TEXT[effect]} "
                    f"({site['detail']} at {leaf_path}:{site['line']}); "
                    f"chain: {pretty_chain}"
                )
                out.append(
                    {
                        "rule": EFFECT_RULES[effect],
                        "path": self.summaries[module]["path"],
                        "line": self._anchor(entry, chain, site),
                        "entry": entry,
                        "effect": effect,
                        "chain": chain,
                        "site": {
                            "path": leaf_path,
                            "line": site["line"],
                            "detail": site["detail"],
                        },
                        "message": message,
                    }
                )
        out.sort(key=lambda f: (f["path"], f["line"], f["rule"], f["message"]))
        return out
