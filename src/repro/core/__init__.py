"""The paper's primary contribution: optimal online abort-delay policies.

This package implements Section 4 (the conflict cost model), Section 5
(optimal deterministic and randomized policies for requestor-wins),
the requestor-aborts / ski-rental reductions of Theorems 1-3, the
closed-form competitive ratios, the numeric verification machinery used
to check them, and the progress (backoff) and hybrid extensions.
"""

from __future__ import annotations

from repro.core.model import ConflictKind, ConflictModel
from repro.core.policy import (
    DelayPolicy,
    FixedDelayPolicy,
    ImmediateAbortPolicy,
    NeverAbortPolicy,
)
from repro.core.requestor_wins import (
    DeterministicRW,
    MeanConstrainedRW,
    PolynomialRW,
    UniformRW,
    optimal_requestor_wins,
)
from repro.core.requestor_aborts import (
    ChainRA,
    DeterministicRA,
    DiscreteSkiRentalRA,
    ExponentialRA,
    MeanConstrainedRA,
    optimal_requestor_aborts,
)
from repro.core.oracle import ClairvoyantPolicy
from repro.core.backoff import BackoffPolicy, progress_attempt_bound
from repro.core.hybrid import HybridResolver
from repro.core import ratios
from repro.core.validate import ValidationReport, validate_policy
from repro.core.verify import (
    competitive_ratio,
    constrained_competitive_ratio,
    expected_cost,
    simulate_costs,
)

__all__ = [
    "ConflictKind",
    "ConflictModel",
    "DelayPolicy",
    "FixedDelayPolicy",
    "ImmediateAbortPolicy",
    "NeverAbortPolicy",
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
    "ValidationReport",
]
