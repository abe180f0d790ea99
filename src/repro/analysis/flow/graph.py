"""Project call graph + effect propagation for the deep pass.

Takes the per-module summaries from :mod:`extract`, resolves the
symbolic call references into a node graph (``module:qualname``),
propagates intrinsic effects to fixpoint, and emits the raw FLOW
findings — plain dicts, so the run-level cache can store them as-is.

Everything here is deterministic by construction: modules, functions,
edges and worklists are always iterated in sorted order, and chains
are shortest-path BFS over sorted adjacency, so the same tree always
produces byte-identical findings.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.rules.flow import EFFECT_RULES

__all__ = ["ProjectGraph"]

#: human-readable effect names for messages.
_EFFECT_TEXT = {
    "wall-clock": "a wall-clock read",
    "ambient-rng": "ambient randomness",
    "unordered-iter": "unordered-set iteration",
    "global-mutation": "global-state mutation",
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
        self.ambient_returns: dict[str, bool] = {}
        self._ambient_via: dict[str, str] = {}
        self._build_edges()
        self._propagate_effects()
        self._propagate_ambient_returns()

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

    def _propagate_ambient_returns(self) -> None:
        for node_id, (_m, _q, info) in self.functions.items():
            self.ambient_returns[node_id] = bool(info["ambient_return"])
        changed = True
        while changed:
            changed = False
            for node_id in sorted(self.functions):
                if self.ambient_returns[node_id]:
                    continue
                module, _qual, info = self.functions[node_id]
                for ref in info["return_refs"]:
                    target = self.resolve(module, ref)
                    if target is not None and self.ambient_returns[target]:
                        self.ambient_returns[node_id] = True
                        self._ambient_via[node_id] = target
                        changed = True
                        break

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

    def ambient_chain(self, start: str) -> list[str]:
        """Helper chain explaining why ``start`` returns an ambient
        generator (follows the recorded fixpoint witnesses)."""
        path = [start]
        while path[-1] in self._ambient_via:
            path.append(self._ambient_via[path[-1]])
        return path

    # -- entry points -------------------------------------------------
    def entries(self) -> list[str]:
        """Sim-critical entry points: public functions in entry-scope
        modules, plus anything registered with ``register_experiment``."""
        out: set[str] = set()
        for module in sorted(self.summaries):
            summ = self.summaries[module]
            if summ["entry_scope"]:
                for qual, info in summ["functions"].items():
                    if info["public"]:
                        out.add(_node(module, qual))
            for ref in summ["registered"]:
                target = self.resolve(module, ref)
                if target is not None:
                    out.add(target)
        return sorted(out)

    # -- findings -----------------------------------------------------
    def findings(self) -> list[dict]:
        raw: list[dict] = []
        raw.extend(self._purity_findings())
        raw.extend(self._seed_findings())
        raw.sort(
            key=lambda f: (f["path"], f["line"], f["rule"], f["message"])
        )
        return raw

    def _purity_findings(self) -> list[dict]:
        out: list[dict] = []
        for entry in self.entries():
            module, qual, info = self.functions[entry]
            for effect in sorted(self.effects[entry] & set(EFFECT_RULES)):
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
                        "line": info["line"],
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
        return out

    def _seed_findings(self) -> list[dict]:
        out: list[dict] = []
        for module in sorted(self.summaries):
            summ = self.summaries[module]
            if not summ["entry_scope"]:
                continue
            path = summ["path"]
            for qual in sorted(summ["functions"]):
                info = summ["functions"][qual]
                node_id = _node(module, qual)
                for site in info["rng_sites"]:
                    finding = self._seed_site_finding(
                        module, path, node_id, site
                    )
                    if finding is not None:
                        out.append(finding)
            for site in summ["module_rng"]:
                out.append(
                    {
                        "rule": "FLOW007",
                        "path": path,
                        "line": site["line"],
                        "entry": f"{module}:<module>",
                        "effect": "rng-boundary",
                        "chain": [f"{module}:<module>"],
                        "site": {
                            "path": path,
                            "line": site["line"],
                            "detail": site["detail"],
                        },
                        "message": (
                            f"{module}: {site['detail']} — module-level "
                            f"generators are shared across every caller and "
                            f"worker; derive one per call from a seed "
                            f"argument (rngutil.seedseq_for)"
                        ),
                    }
                )
        return out

    def _seed_site_finding(
        self, module: str, path: str, node_id: str, site: dict
    ) -> dict | None:
        base = {
            "rule": site["rule"],
            "path": path,
            "line": site["line"],
            "entry": node_id,
            "site": {
                "path": path,
                "line": site["line"],
                "detail": site["detail"],
            },
        }
        if site["provenance"] == "ambient":
            return {
                **base,
                "effect": "seed-provenance",
                "chain": [node_id],
                "message": (
                    f"{_pretty(node_id)}: {site['detail']} — every "
                    f"generator in sim-critical code must derive from a "
                    f"seed parameter or rngutil.seedseq_for"
                ),
            }
        if site["provenance"] == "capture":
            return {
                **base,
                "effect": "rng-boundary",
                "chain": [node_id],
                "message": (
                    f"{_pretty(node_id)}: {site['detail']} — pass a seed "
                    f"and derive a per-task generator inside the worker"
                ),
            }
        if site["provenance"] == "call":
            target = self.resolve(module, site["ref"])
            if target is None or not self.ambient_returns.get(target, False):
                return None
            chain = [node_id] + self.ambient_chain(target)
            pretty_chain = " -> ".join(_pretty(n) for n in chain)
            return {
                **base,
                "effect": "seed-provenance",
                "chain": chain,
                "message": (
                    f"{_pretty(node_id)}: {site['detail']} whose callee "
                    f"returns an ambient-seeded generator; chain: "
                    f"{pretty_chain}"
                ),
            }
        return None
