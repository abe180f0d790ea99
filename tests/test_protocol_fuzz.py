"""Protocol fuzzing: random machine configurations, every invariant on.

Each case draws a random geometry (tiny caches force capacity traffic),
a random policy, a random workload, and a random topology; the run must
finish, drain, verify, and satisfy every protocol invariant.  This is
the test that has historically caught protocol races (stale fills,
zombie requests) — breadth over depth.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.htm import (
    DetDelay,
    GreedyCM,
    HybridDelay,
    Machine,
    MachineParams,
    NoDelay,
    RandDelay,
    RequestorAbortsDelay,
    TunedDelay,
)
from repro.htm.interconnect import FixedLatency, MeshTopology
from repro.rngutil import ensure_rng
from repro.workloads import (
    BankWorkload,
    CounterWorkload,
    ListSetWorkload,
    QueueWorkload,
    StackWorkload,
    TxAppWorkload,
)

POLICIES = [
    lambda: NoDelay(),
    lambda: RandDelay(),
    lambda: DetDelay(),
    lambda: TunedDelay(80),
    lambda: RequestorAbortsDelay(),
    lambda: HybridDelay(),
    lambda: GreedyCM(),
]

WORKLOADS = [
    lambda: CounterWorkload(),
    lambda: StackWorkload(prefill=8),
    lambda: QueueWorkload(prefill=8),
    lambda: TxAppWorkload(n_objects=16, work_cycles=40),
    lambda: BankWorkload(n_accounts=8, p_audit=0.2),
    lambda: ListSetWorkload(key_range=16, prefill=4),
]


def _random_config(rng):
    n_cores = int(rng.choice([2, 3, 4, 6, 8]))
    params = MachineParams(
        n_cores=n_cores,
        l1_sets=int(rng.choice([1, 2, 8, 64])),
        l1_assoc=int(rng.choice([2, 4, 8])),
        abort_cycles=int(rng.choice([10, 60, 150])),
        abort_overhead=int(rng.choice([20, 100, 300])),
        retry_backoff_base=int(rng.choice([0, 8, 32])),
        max_retries=int(rng.choice([1, 4, 8])),
    )
    topology = (
        MeshTopology(n_cores, per_hop=int(rng.choice([1, 3])))
        if rng.random() < 0.5
        else FixedLatency(int(rng.choice([0, 4, 10])))
    )
    policy_factory = POLICIES[int(rng.integers(0, len(POLICIES)))]
    workload = WORKLOADS[int(rng.integers(0, len(WORKLOADS)))]()
    wedge = bool(rng.random() < 0.9)
    cycles = bool(rng.random() < 0.9)
    return params, topology, policy_factory, workload, wedge, cycles


def _random_plan(rng) -> FaultPlan:
    """A random active fault plan; every injector has a chance to be on
    and at least one always is (the all-off draw re-rolls spurious)."""
    plan = FaultPlan(
        spurious_abort_rate=float(rng.choice([0.0, 5e-4, 2e-3, 5e-3])),
        capacity_shrink_prob=float(rng.choice([0.0, 0.2, 0.5])),
        capacity_ways_lost=int(rng.choice([1, 2, 4])),
        link_jitter_rate=float(rng.choice([0.0, 0.1, 0.4])),
        link_jitter_cycles=int(rng.choice([1, 8, 32])),
        stall_rate=float(rng.choice([0.0, 0.05, 0.2])),
        stall_cycles=int(rng.choice([10, 100, 400])),
        b_noise=float(rng.choice([0.0, 0.3, 1.0])),
        k_noise=float(rng.choice([0.0, 0.3, 1.0])),
        mu_noise=float(rng.choice([0.0, 0.5])),
    )
    if plan.is_null():
        plan = FaultPlan(spurious_abort_rate=2e-3)
    return plan


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(24))
def test_random_machine_configuration(seed):
    rng = ensure_rng(10_000 + seed)
    params, topology, policy_factory, workload, wedge, cycles = _random_config(
        rng
    )
    machine = Machine(
        params,
        lambda i: policy_factory(),
        topology=topology,
        wedge_aware=wedge,
        detect_cycles=cycles,
    )
    machine.load(workload, seed=seed)
    stats = machine.run(40_000.0)
    workload.verify(machine)
    machine.check_invariants()
    assert machine._waits == {}, "waits-for edges leaked"
    assert stats.ops_completed > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(24))
def test_random_machine_with_faults(seed):
    """Fault injection must never break linearizability: under random
    spurious aborts, capacity pressure, delayed/duplicated coherence
    messages, stalls, and estimator noise, the run still drains,
    ``workload.verify`` passes (no WorkloadError), and every protocol
    invariant holds.  Faults cost throughput, never correctness."""
    rng = ensure_rng(20_000 + seed)
    params, topology, policy_factory, workload, wedge, cycles = _random_config(
        rng
    )
    plan = _random_plan(rng)
    machine = Machine(
        params,
        lambda i: policy_factory(),
        topology=topology,
        wedge_aware=wedge,
        detect_cycles=cycles,
        faults=plan,
    )
    machine.load(workload, seed=seed)
    stats = machine.run(40_000.0)
    workload.verify(machine)  # raises WorkloadError on corruption
    machine.check_invariants()
    assert machine._waits == {}, "waits-for edges leaked"
    assert stats.ops_completed > 0
    assert sum(stats.fault_counts().values()) > 0, plan.describe()
