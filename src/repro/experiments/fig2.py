"""Figure 2 — synthetic average-cost experiments (Section 8.1).

* ``fig2a``: high fixed cost, B = 2000, µ = 500.
* ``fig2b``: low fixed cost, B = 200, µ = 500.
* ``fig2c``: the worst-case distribution for the deterministic policy.

Each produces one row per (distribution, policy) with the mean conflict
cost, and normalized-to-OPT columns matching how the published bars are
read.
"""

from __future__ import annotations

from repro.distributions import (
    ExponentialLengths,
    GeometricLengths,
    NormalLengths,
    PoissonLengths,
    UniformLengths,
    WorstCaseForDeterministic,
)
from repro.rngutil import seedseq_for, stream_for
from repro.synthetic import SyntheticHarness

__all__ = ["run_fig2a", "run_fig2b", "run_fig2c", "FIG2_DISTRIBUTIONS"]

#: The five Section 8.1 length distributions, in the paper's order.
FIG2_DISTRIBUTIONS = ("geometric", "normal", "uniform", "exponential", "poisson")


def _distributions(mu: float):
    return [
        GeometricLengths(mu),
        NormalLengths(mu),
        UniformLengths(mu),
        ExponentialLengths(mu),
        PoissonLengths(mu),
    ]


def _theory_bounds(harness: SyntheticHarness) -> dict[str, float]:
    """Worst-case competitive-ratio guarantee per Figure 2 policy label.

    Each suite policy's own closed-form ``competitive_ratio`` (the
    factories' regime dispatch picked the policy) — the bound each bar
    must stay under; MC ``vs_OPT`` values are per-distribution
    averages, so they sit at or below these against the theorems'
    adversary.
    """
    return {
        entry.label: 1.0 if entry.label == "OPT" else entry.policy.competitive_ratio
        for entry in harness.policies
    }


def _run_cost_grid(
    exp_id: str,
    B: float,
    mu: float,
    trials: int,
    seed: int | None,
    n_shards: int = 1,
    pool=None,
) -> list[dict[str, object]]:
    """Monte-Carlo grid over the five distributions.

    ``n_shards`` fixes the trial-shard count (part of the result's
    identity: rows are bit-identical for a fixed ``(seed, n_shards)``
    and invariant to ``pool`` / ``--jobs``); ``pool`` only decides
    where the shards execute.  ``n_shards == 1`` reproduces the
    historical single-stream draws exactly.
    """
    harness = SyntheticHarness(B, mu)
    bounds = _theory_bounds(harness)
    rows: list[dict[str, object]] = []
    for dist in _distributions(mu):
        result = harness.run(
            dist,
            trials,
            (
                stream_for(seed, exp_id, dist.name)
                if n_shards == 1
                else seedseq_for(seed, exp_id, dist.name)
            ),
            n_shards=n_shards,
            pool=pool,
        )
        opt = result.mean_cost("OPT")
        for label, acc in result.stats.items():
            rows.append(
                {
                    "distribution": dist.name,
                    "policy": label,
                    "mean_cost": acc.mean,
                    "sem": acc.sem,
                    "vs_OPT": acc.mean / opt,
                    "theory_bound": round(bounds[label], 4),
                }
            )
    return rows


def run_fig2a(
    trials: int = 200_000,
    seed: int | None = None,
    n_shards: int = 1,
    pool=None,
):
    """Average cost, high fixed cost (B = 2000, µ = 500)."""
    return _run_cost_grid("fig2a", 2000.0, 500.0, trials, seed, n_shards, pool)


def run_fig2b(
    trials: int = 200_000,
    seed: int | None = None,
    n_shards: int = 1,
    pool=None,
):
    """Average cost, low fixed cost (B = 200, µ = 500)."""
    return _run_cost_grid("fig2b", 200.0, 500.0, trials, seed, n_shards, pool)


def run_fig2c(
    trials: int = 200_000,
    seed: int | None = None,
    B: float = 500.0,
    n_shards: int = 1,
    pool=None,
):
    """Average cost when the adversary plays DET's worst case.

    The remaining time is drawn directly (the adversary chooses ``D``,
    per Theorem 4's lower-bound argument) concentrated just past DET's
    abort point ``B/(k-1)``, so DET pays ``kx + B ~ 3B`` where OPT pays
    ``B``.
    """
    dist = WorstCaseForDeterministic(B, k=2)
    harness = SyntheticHarness(B, dist.mean, interrupt="direct")
    result = harness.run(
        dist,
        trials,
        (
            stream_for(seed, "fig2c")
            if n_shards == 1
            else seedseq_for(seed, "fig2c")
        ),
        n_shards=n_shards,
        pool=pool,
    )
    opt = result.mean_cost("OPT")
    bounds = _theory_bounds(harness)
    return [
        {
            "distribution": "det-worst",
            "policy": label,
            "mean_cost": acc.mean,
            "sem": acc.sem,
            "vs_OPT": acc.mean / opt,
            "theory_bound": round(bounds[label], 4),
        }
        for label, acc in result.stats.items()
    ]
