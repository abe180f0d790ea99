"""ERR — exception-handling rules protecting the watchdog contract.

PR 1's hardened runner rests on one invariant: a watchdog
:class:`~repro.errors.ExperimentTimeoutError` (and ``KeyboardInterrupt``)
must *always* propagate — it is never retried, never recorded as a
transient failure, never swallowed.  A bare or broad ``except`` buried
anywhere under the runner can silently violate that.  These rules flag
every handler that could, unless the code either re-raises or guards
the broad handler with an explicit re-raising handler for the
protected exceptions (the sanctioned pattern)::

    try:
        ...
    except ExperimentTimeoutError:
        raise                      # budget decisions propagate
    except Exception as exc:       # now provably transient
        record(exc)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.rules.base import (
    FileContext,
    Finding,
    Rule,
    exception_names,
    handler_reraises,
)

__all__ = [
    "BareExceptRule",
    "BroadExceptRule",
    "SwallowedWatchdogRule",
    "AtomicArtifactWriteRule",
]

_BROAD = frozenset({"Exception", "BaseException"})
#: Exceptions that must always propagate (watchdog/interrupt contract).
_PROTECTED = frozenset(
    {"ExperimentTimeoutError", "KeyboardInterrupt", "SystemExit"}
)


def _guarded(try_node: ast.Try, handler: ast.ExceptHandler) -> bool:
    """True when an earlier handler in the same try re-raises one of the
    protected exceptions, making a later broad handler safe."""
    for earlier in try_node.handlers:
        if earlier is handler:
            return False
        if set(exception_names(earlier.type)) & _PROTECTED and (
            handler_reraises(earlier)
        ):
            return True
    return False


class BareExceptRule(Rule):
    id = "ERR001"
    summary = "bare except:"
    rationale = (
        "a bare except catches BaseException — including the runner's "
        "watchdog timeout and KeyboardInterrupt — and hides the real "
        "failure.  Name the exception (narrowest class that works)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    node,
                    self.id,
                    "bare 'except:' swallows watchdog timeouts and "
                    "KeyboardInterrupt; catch a named exception class",
                )


class BroadExceptRule(Rule):
    id = "ERR002"
    summary = "broad except Exception/BaseException without re-raise"
    rationale = (
        "except Exception swallows ExperimentTimeoutError (a budget "
        "decision, not a transient fault) and any ProtocolError the "
        "invariant checks raise.  Narrow the handler, re-raise, or put "
        "an 'except ExperimentTimeoutError: raise' guard before it."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                caught = set(exception_names(handler.type))
                if not caught & _BROAD:
                    continue
                if handler_reraises(handler) or _guarded(node, handler):
                    continue
                yield ctx.finding(
                    handler,
                    self.id,
                    f"broad 'except {', '.join(sorted(caught & _BROAD))}' "
                    f"can swallow ExperimentTimeoutError; narrow it, "
                    f"re-raise, or guard with "
                    f"'except ExperimentTimeoutError: raise' first",
                )


class SwallowedWatchdogRule(Rule):
    id = "ERR003"
    summary = "protected exception caught without re-raise"
    rationale = (
        "catching ExperimentTimeoutError / KeyboardInterrupt / "
        "SystemExit without re-raising breaks the watchdog contract: "
        "a timed-out experiment would keep running or be recorded as an "
        "ordinary failure."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = set(exception_names(node.type)) & _PROTECTED
            if caught and not handler_reraises(node):
                yield ctx.finding(
                    node,
                    self.id,
                    f"{', '.join(sorted(caught))} caught without re-raise; "
                    f"the watchdog contract requires these to propagate",
                )


#: Identifier fragments marking a crash-consistency-critical artifact.
_ARTIFACT_TOKENS = ("checkpoint", "ckpt", "journal", "cache")
#: ``open`` modes that truncate the target before writing.
_TRUNCATING_MODES = frozenset({"w", "wb", "w+", "wb+", "w+b", "wt"})


class AtomicArtifactWriteRule(Rule):
    id = "ERR004"
    summary = "non-atomic write to a checkpoint/cache artifact"
    rationale = (
        "writing a result-cache entry, or any artifact a later run reads "
        "back, with open(path, 'w') / Path.write_text truncates in place: "
        "a crash mid-write leaves a torn artifact the next run must "
        "distrust.  Route these writes through "
        "repro.parallel.cache.atomic_write_text (temp file + fsync + "
        "os.replace) or an append-only log."
    )

    def _mentions_artifact(self, node: ast.AST) -> bool:
        try:
            text = ast.unparse(node).lower()
        except (ValueError, RecursionError):  # pragma: no cover - exotic AST
            return False
        return any(token in text for token in _ARTIFACT_TOKENS)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open" and node.args:
                mode = None
                if len(node.args) >= 2:
                    mode = node.args[1]
                for kw in node.keywords:
                    if kw.arg == "mode":
                        mode = kw.value
                if not (
                    isinstance(mode, ast.Constant)
                    and mode.value in _TRUNCATING_MODES
                ):
                    continue
                if self._mentions_artifact(node.args[0]):
                    yield ctx.finding(
                        node,
                        self.id,
                        "open(..., 'w') truncates a checkpoint/cache "
                        "artifact in place; use atomic_write_text (temp "
                        "file + fsync + os.replace) so a crash cannot "
                        "tear it",
                    )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in ("write_text", "write_bytes")
                and self._mentions_artifact(func.value)
            ):
                yield ctx.finding(
                    node,
                    self.id,
                    f"{func.attr}() rewrites a checkpoint/cache artifact "
                    f"in place; use atomic_write_text (temp file + fsync "
                    f"+ os.replace) so a crash cannot tear it",
                )
