"""Discrete-event hardware-transactional-memory simulator.

This package is the repository's substitute for the paper's Graphite
setup (Section 8.2): a tiled multicore with private L1 caches and a
shared L2 whose full-map MSI **directory** detects conflicts, extended
with transactional bits per cache line and a requestor-wins HTM whose
receivers may *delay* conflicting coherence responses by a grace period
chosen by a pluggable conflict policy.

Fidelity notes (also in DESIGN.md): in-order blocking cores (one
outstanding miss), MSI rather than MESI, fixed-latency interconnect (no
mesh contention), value storage centralized at the directory with
per-transaction write buffers (lazy versioning, eager conflict
detection).  These match the abstraction level of the paper's
Algorithm 1; the published comparisons are between conflict policies on
one substrate, which is preserved.
"""

from __future__ import annotations

from repro.htm.params import MachineParams
from repro.htm.conflict_policy import (
    ConflictContext,
    GreedyCM,
    HybridDelay,
    RequestorAbortsDelay,
    CyclePolicy,
    DetDelay,
    NoDelay,
    RandDelay,
    RegimeAdaptiveDelay,
    REMAINING_FRACTION,
    RRWMeanDelay,
    TunedDelay,
    commit_feed,
    policy_from_name,
)
from repro.htm.machine import Machine, MachineStats

__all__ = [
    "MachineParams",
    "Machine",
    "MachineStats",
    "ConflictContext",
    "CyclePolicy",
    "NoDelay",
    "TunedDelay",
    "DetDelay",
    "RandDelay",
    "RRWMeanDelay",
    "RequestorAbortsDelay",
    "HybridDelay",
    "GreedyCM",
    "RegimeAdaptiveDelay",
    "REMAINING_FRACTION",
    "commit_feed",
    "policy_from_name",
]
