"""Pluggable fault injection for the HTM simulator.

The paper proves its delay policies constant-competitive against an
*adversary*, but the seed simulator only ever exercised them on a
well-behaved machine.  This package supplies the misbehaving machine:
config-driven, deterministic (seeded from :mod:`repro.rngutil`
streams) injection of spurious aborts, cache-capacity pressure,
interconnect jitter and duplication, core stalls, and noise on the
B/k/µ estimates every policy decision consumes.

Usage::

    from repro.faults import FaultPlan
    from repro.htm import Machine, MachineParams, RandDelay

    plan = FaultPlan(spurious_abort_rate=1e-4, link_jitter_rate=0.1,
                     link_jitter_cycles=20)
    machine = Machine(MachineParams(), lambda i: RandDelay(), faults=plan)
    machine.load(workload, seed=1)
    stats = machine.run(200_000.0)
    print(stats.fault_counts())   # {'spurious_aborts': 12, ...}

:mod:`repro.faults.chaos` extends the adversary one level up — to the
*host* the harness runs on: seeded SIGKILL/SIGSTOP of worker
processes (:class:`ChaosPlan`, armed by ``--chaos SEED``) and
deterministic corruption of result-cache entries
(:func:`corrupt_bytes`), exercised by the chaos CI job against the
supervised pool's recovery guarantees and the cache's checksums.

See ``docs/ROBUSTNESS.md`` for the fault model and
``python -m repro robustness`` for the policy-degradation sweep.
"""

from __future__ import annotations

from repro.faults.chaos import (
    ChaosPlan,
    apply_worker_chaos,
    corrupt_bytes,
)
from repro.faults.injectors import (
    NULL_INJECTOR,
    FaultInjector,
    NullInjector,
    injector_for,
)
from repro.faults.plan import FaultPlan

__all__ = [
    "ChaosPlan",
    "FaultPlan",
    "FaultInjector",
    "NullInjector",
    "NULL_INJECTOR",
    "apply_worker_chaos",
    "corrupt_bytes",
    "injector_for",
]
