"""repro — a reproduction of *The Transactional Conflict Problem*
(Alistarh, Haider, Kübler, Nadiradze; SPAA 2018).

The package implements, from scratch:

* the paper's optimal online abort-delay policies for requestor-wins
  and requestor-aborts conflict resolution (:mod:`repro.core`) with
  numeric verification of every theorem;
* the Section 8.1 synthetic testbed (:mod:`repro.synthetic`) and the
  Section 6 adversarial-scheduling arenas (:mod:`repro.adversary`);
* a discrete-event multicore HTM simulator — private L1s, a full-map
  MSI directory, lazy validation, requestor-wins with policy-driven
  grace periods (:mod:`repro.htm`) — plus the paper's stack, queue and
  transactional-application workloads (:mod:`repro.workloads`);
* experiment runners regenerating every figure and table
  (:mod:`repro.experiments`, CLI: ``python -m repro``).

Quickstart::

    from repro import ConflictModel, ConflictKind, optimal_requestor_wins

    model = ConflictModel(ConflictKind.REQUESTOR_WINS, B=2000.0, k=2)
    policy = optimal_requestor_wins(B=2000.0, mu=500.0)
    delay = policy.sample(rng=0)          # the grace period to grant
    cost = model.cost(delay, remaining=750.0)
"""

from __future__ import annotations

from repro.core import (
    BackoffPolicy,
    ChainRA,
    ClairvoyantPolicy,
    ConflictKind,
    ConflictModel,
    DelayPolicy,
    DeterministicRA,
    DeterministicRW,
    DiscreteSkiRentalRA,
    ExponentialRA,
    FixedDelayPolicy,
    HybridResolver,
    ImmediateAbortPolicy,
    MeanConstrainedRA,
    MeanConstrainedRW,
    PolynomialRW,
    UniformRW,
    competitive_ratio,
    constrained_competitive_ratio,
    expected_cost,
    optimal_requestor_aborts,
    optimal_requestor_wins,
    progress_attempt_bound,
    ratios,
    simulate_costs,
    validate_policy,
)
from repro.adversary import (
    Adversary,
    ArenaOutcome,
    Conflict,
    ConflictLedgerArena,
    ConflictSchedule,
    PeriodicAdversary,
    RandomAdversary,
    TargetedAdversary,
    ThroughputArena,
    TimedArena,
    Transaction,
)
from repro.distributions import (
    BimodalLengths,
    DeterministicLengths,
    ExponentialLengths,
    GeometricLengths,
    LengthDistribution,
    NormalLengths,
    PoissonLengths,
    UniformLengths,
    WorstCaseForDeterministic,
    get_distribution,
)
from repro.htm import (
    ConflictContext,
    CyclePolicy,
    DetDelay,
    GreedyCM,
    HybridDelay,
    Machine,
    MachineParams,
    MachineStats,
    NoDelay,
    RandDelay,
    RequestorAbortsDelay,
    RRWMeanDelay,
    TunedDelay,
    policy_from_name,
)
from repro.sim.trace import Tracer
from repro.synthetic import SyntheticHarness, SyntheticResult, default_policy_suite
from repro.workloads import (
    BankWorkload,
    CounterWorkload,
    ListSetWorkload,
    QueueWorkload,
    StackWorkload,
    TxAppWorkload,
    Workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ConflictKind",
    "ConflictModel",
    "DelayPolicy",
    "FixedDelayPolicy",
    "ImmediateAbortPolicy",
    "DeterministicRW",
    "UniformRW",
    "MeanConstrainedRW",
    "PolynomialRW",
    "optimal_requestor_wins",
    "DeterministicRA",
    "ExponentialRA",
    "MeanConstrainedRA",
    "ChainRA",
    "DiscreteSkiRentalRA",
    "optimal_requestor_aborts",
    "ClairvoyantPolicy",
    "BackoffPolicy",
    "progress_attempt_bound",
    "HybridResolver",
    "ratios",
    "expected_cost",
    "competitive_ratio",
    "constrained_competitive_ratio",
    "simulate_costs",
    "validate_policy",
    # distributions
    "LengthDistribution",
    "GeometricLengths",
    "NormalLengths",
    "UniformLengths",
    "ExponentialLengths",
    "PoissonLengths",
    "DeterministicLengths",
    "BimodalLengths",
    "WorstCaseForDeterministic",
    "get_distribution",
    # synthetic
    "SyntheticHarness",
    "SyntheticResult",
    "default_policy_suite",
    # adversary
    "Transaction",
    "Conflict",
    "ConflictSchedule",
    "Adversary",
    "RandomAdversary",
    "PeriodicAdversary",
    "TargetedAdversary",
    "ConflictLedgerArena",
    "TimedArena",
    "ThroughputArena",
    "ArenaOutcome",
    # htm
    "Machine",
    "MachineParams",
    "MachineStats",
    "CyclePolicy",
    "ConflictContext",
    "NoDelay",
    "TunedDelay",
    "DetDelay",
    "RandDelay",
    "RRWMeanDelay",
    "RequestorAbortsDelay",
    "HybridDelay",
    "GreedyCM",
    "Tracer",
    "policy_from_name",
    # workloads
    "Workload",
    "StackWorkload",
    "QueueWorkload",
    "TxAppWorkload",
    "CounterWorkload",
    "BankWorkload",
    "ListSetWorkload",
]
