"""Corollary experiments: global competitiveness and progress.

* ``cor1`` — the Section 6 claim: under adversarial conflict
  scheduling, the randomized requestor-wins policy's sum of running
  times is within ``(2w+1)/(w+1)`` of the offline optimum.  We sweep
  adversaries and contention levels, reporting measured ratio vs bound.
* ``cor2`` — the Section 7 claim: with multiplicative abort-cost
  backoff, a transaction of running time ``y`` meeting ``gamma``
  conflicts per execution commits within
  ``log2 y + log2 gamma + log2 k - log2 B + 2`` attempts with
  probability >= 1/2.
"""

from __future__ import annotations

import numpy as np

from repro.adversary import (
    ConflictLedgerArena,
    PeriodicAdversary,
    RandomAdversary,
    TargetedAdversary,
    TimedArena,
)
from repro.adversary.adversaries import make_transactions
from repro.core.backoff import progress_attempt_bound
from repro.core.model import ConflictKind
from repro.core.requestor_wins import UniformRW
from repro.distributions import ExponentialLengths, UniformLengths
from repro.rngutil import seedseq_for, stream_for
from repro.sim.mc import TrialProgram

__all__ = ["run_cor1", "run_cor2"]

#: The (y, gamma) grid of the Corollary 2 progress experiment.
COR2_GRID = ((500.0, 1), (500.0, 3), (4000.0, 2), (4000.0, 6))


def run_cor1(
    *,
    n_threads: int = 16,
    per_thread: int = 200,
    B: float = 300.0,
    mu: float = 500.0,
    seed: int | None = None,
) -> list[dict[str, object]]:
    """Measured global ratio vs the Corollary 1 bound, per adversary."""
    adversaries = [
        RandomAdversary(0.3),
        RandomAdversary(0.9, max_hits=3, chain_weights={2: 0.6, 3: 0.3, 5: 0.1}),
        PeriodicAdversary(fractions=(0.25, 0.75)),
        TargetedAdversary(threshold=B, k=2),
    ]
    arena = ConflictLedgerArena(
        ConflictKind.REQUESTOR_WINS, B, lambda k: UniformRW(B, k)
    )
    cells = []
    for dist_name, dist in (
        ("exponential", ExponentialLengths(mu)),
        ("uniform", UniformLengths(mu)),
    ):
        for adv in adversaries:
            rng = stream_for(seed, "cor1", dist_name, adv.name)
            txns = make_transactions(n_threads, per_thread, dist, rng)
            cells.append((dist_name, adv, adv.build(txns, rng), rng))
    outcomes = [arena.run(schedule, rng) for _, _, schedule, rng in cells]
    return [
        {
            "lengths": dist_name,
            "adversary": adv.name,
            "conflicts": outcome.n_conflicts,
            "waste_w": outcome.waste,
            "measured_ratio": outcome.ratio,
            "bound": outcome.corollary1_bound,
            "within": outcome.within_bound(slack=0.02),
        }
        for (dist_name, adv, _, _), outcome in zip(cells, outcomes)
    ]


def run_cor2(
    *,
    B0: float = 64.0,
    k: int = 2,
    trials: int = 400,
    seed: int | None = None,
    engine: str = "batch",
    pool=None,
) -> list[dict[str, object]]:
    """Attempts-to-commit with doubling backoff vs the Corollary 2 bound.

    Each (y, gamma) row executes ``trials`` independent transactions
    through the batched SoA engine (``repro.sim.mc``); the row's draw
    streams derive from ``seedseq_for(seed, "cor2", y, gamma)``, so
    rows are identical at any ``--jobs`` and between ``engine="batch"``
    and the scalar golden reference.
    """
    arena = TimedArena()
    rows: list[dict[str, object]] = []
    for y, gamma in COR2_GRID:
        # gamma conflicts per execution, evenly spread
        conflicts = tuple(
            (y * (1.0 - (i + 0.5) / gamma) + 1.0, k) for i in range(gamma)
        )
        program = TrialProgram(
            rho=y, conflicts=conflicts, k=k, B0=B0, factor=2.0
        )
        results = arena.run_batch(
            program,
            trials,
            seed=seedseq_for(seed, "cor2", int(y), gamma),
            engine=engine,
            pool=pool,
        )
        bound = progress_attempt_bound(y, gamma, k, B0)
        rows.append(
            {
                "y": y,
                "gamma": gamma,
                "bound_attempts": bound,
                "median_attempts": float(np.median(results.attempts)),
                "p_within_bound": float(np.mean(results.attempts <= bound)),
                "holds_half": bool(np.mean(results.attempts <= bound) >= 0.5),
            }
        )
    return rows
