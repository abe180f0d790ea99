"""Analysis "tables": competitive ratios and abort probabilities.

The paper reports its optimality results as theorems rather than a
numbered table; ``tab_ratios`` regenerates the implied table — for each
theorem, the closed-form ratio next to an implementation-independent
numeric evaluation (grid-search adversary against quadrature expected
costs) — and ``tab_abort_prob`` reproduces the Section 5.3
abort-probability comparison.
"""

from __future__ import annotations

from repro.core.ratios import (
    abort_probability_ra,
    abort_probability_rw,
    ra_mean_regime_threshold,
    rw_mean_regime_threshold,
)
from repro.core.requestor_aborts import (
    ChainRA,
    DeterministicRA,
    DiscreteSkiRentalRA,
    ExponentialRA,
)
from repro.core.requestor_wins import (
    DeterministicRW,
    MeanConstrainedRW,
    PolynomialRW,
    UniformRW,
)
from repro.core.verify import competitive_ratio, constrained_competitive_ratio

__all__ = ["run_tab_ratios", "run_tab_abort_prob"]


def _cell_policies(B: float, k: int) -> list:
    """``(theorem, label, policy, mu)`` for every theorem at one
    ``(B, k)`` cell, in table order; ``mu``, at half the regime
    threshold, is set for the mean-constrained policies only."""
    mu_rw = 0.5 * B * rw_mean_regime_threshold(k)
    mu_ra = 0.5 * B * ra_mean_regime_threshold(k)
    entries = [
        ("Thm4", "DET(RW)", DeterministicRW(B, k), None),
        ("Thm5", "RRW uniform", UniformRW(B, k), None),
        ("Thm1/3", "RRA exp", ExponentialRA(B, k), None),
        ("-", "DET(RA)", DeterministicRA(B, k), None),
    ]
    if k == 2:
        entries += [
            ("Thm5", "RRW(mu)", MeanConstrainedRW(B, mu_rw), mu_rw),
            ("Thm1", "ski discrete", DiscreteSkiRentalRA(int(B)), None),
        ]
    else:
        entries += [
            ("Thm6", "RRW poly", PolynomialRW(B, k), None),
            ("Thm6*", "RRW(mu) poly", PolynomialRW(B, k, mu_rw), mu_rw),
        ]
    entries.append(("Thm2/3", "RRA(mu)", ChainRA(B, k, mu_ra), mu_ra))
    return entries


def run_tab_ratios(
    *,
    B_values: tuple[float, ...] = (50.0, 200.0, 2000.0),
    k_values: tuple[int, ...] = (2, 3, 4, 8),
    grid: int = 2048,
) -> list[dict[str, object]]:
    """Theorem-by-theorem ratio verification grid.

    For each ``(B, k)`` cell every theorem's policy is checked against
    itself: the closed-form column is the policy's own
    ``competitive_ratio`` (:mod:`repro.core.ratios`), and the numeric
    column runs :mod:`repro.core.verify`'s grid-search adversary over
    the policy's own density — the ``pdf_vec``/``cdf_vec`` that the
    HTM and the decision service sample from.
    """
    rows: list[dict[str, object]] = []
    for B in B_values:
        for k in k_values:
            for theorem, label, policy, mu in _cell_policies(float(B), k):
                model = policy.model()
                if mu is None:
                    numeric = competitive_ratio(policy, model, grid=grid).ratio
                else:
                    numeric = constrained_competitive_ratio(
                        policy, model, mu, grid=grid
                    ).ratio
                closed = policy.competitive_ratio
                rows.append(
                    {
                        "theorem": theorem,
                        "policy": label,
                        "B": float(B),
                        "k": k,
                        "mu": mu if mu is not None else "",
                        "closed_form": closed,
                        "numeric": numeric,
                        "rel_err": abs(numeric - closed) / closed,
                    }
                )
    return rows


def run_tab_abort_prob(
    *, B_values: tuple[float, ...] = (50.0, 200.0, 2000.0)
) -> list[dict[str, object]]:
    """Section 5.3: P(abort) at the adversary's best response ``y = B``.

    Paper approximations: RW ``~ 1 - 1.8/B``, RA ``~ 1 - 2.4/B`` — the
    requestor-aborts optimum is less likely to abort.
    """
    rows = []
    for B in B_values:
        rw, ra = abort_probability_rw(float(B)), abort_probability_ra(float(B))
        rows.append(
            {
                "B": float(B),
                "P_abort_RW": rw,
                "paper_RW": 1.0 - 1.8 / float(B),
                "P_abort_RA": ra,
                "paper_RA": 1.0 - 2.4 / float(B),
                "RA_less_likely": ra < rw,
            }
        )
    return rows
