"""simlint rule registry.

Rules are grouped by contract family:

========  ==========================================================
``ORD``   ordering: no iteration/accumulation over unordered sets
``ERR``   error handling: the watchdog's ``ExperimentTimeoutError``
          and ``KeyboardInterrupt`` always propagate; checkpoint/cache
          artifacts are only written atomically
``API``   interface hygiene: no mutable defaults, no frozen-dataclass
          mutation outside construction
``POL``   project contracts: policy/workload/injector subclasses
          implement the protocol and are registered
``OBS``   observability: sim-critical code reports through the
          metrics registry / trace bus, never bare print or logging
``PRG``   pragma hygiene: suppressions must name real rules
``FLOW``  determinism: no wall-clock read or file write reachable
          from sim-critical code — transitive over the project call
          graph (:mod:`repro.analysis.flow`)
========  ==========================================================

FLOW rules are catalog descriptors: their findings come from the
whole-program pass the engine runs whenever a FLOW rule is selected.
"""

from __future__ import annotations

from repro.analysis.rules.api import FrozenMutationRule, MutableDefaultRule
from repro.analysis.rules.base import (
    Finding,
    FileContext,
    ProjectRule,
    Rule,
    SCOPED_DIRS,
)
from repro.analysis.rules.contracts import (
    InjectorHookRule,
    ProtocolMethodsRule,
    RegistrationRule,
    RegistryNameRule,
)
from repro.analysis.rules.errors import (
    AtomicArtifactWriteRule,
    BareExceptRule,
    BroadExceptRule,
    SwallowedWatchdogRule,
)
from repro.analysis.rules.flow import FLOW_RULES
from repro.analysis.rules.obs import PrintLoggingRule
from repro.analysis.rules.ordering import SetIterationRule, SetPopRule
from repro.analysis.rules.prg import PragmaHygieneRule

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "ProjectRule",
    "SCOPED_DIRS",
    "ALL_RULES",
    "all_rule_ids",
    "resolve_selection",
]

#: Every registered rule, id-ordered.  Instantiated once — rules are
#: stateless AST queries.
ALL_RULES: tuple[Rule, ...] = (
    SetIterationRule(),
    SetPopRule(),
    BareExceptRule(),
    BroadExceptRule(),
    SwallowedWatchdogRule(),
    AtomicArtifactWriteRule(),
    MutableDefaultRule(),
    FrozenMutationRule(),
    ProtocolMethodsRule(),
    RegistryNameRule(),
    RegistrationRule(),
    InjectorHookRule(),
    PrintLoggingRule(),
    PragmaHygieneRule(),
    *FLOW_RULES,
)


def all_rule_ids() -> list[str]:
    return [rule.id for rule in ALL_RULES]


def resolve_selection(
    select: list[str] | None = None, ignore: list[str] | None = None
) -> list[Rule]:
    """Rules matching ``select`` minus ``ignore``.

    Entries are full ids (``FLOW001``) or family prefixes (``FLOW``).
    Unknown entries raise ``ValueError`` — a typo'd ``--select`` must
    not silently lint nothing.
    """

    def matches(rule: Rule, entry: str) -> bool:
        return rule.id == entry or rule.id.startswith(entry)

    def validate(entries: list[str]) -> None:
        for entry in entries:
            if not any(matches(rule, entry) for rule in ALL_RULES):
                known = ", ".join(all_rule_ids())
                raise ValueError(
                    f"unknown rule {entry!r}; known rules: {known}"
                )

    chosen = list(ALL_RULES)
    if select:
        validate(select)
        chosen = [r for r in chosen if any(matches(r, e) for e in select)]
    if ignore:
        validate(ignore)
        chosen = [r for r in chosen if not any(matches(r, e) for e in ignore)]
    return chosen
