"""Chain-size sweep (extension): the RW/RA crossover in the cost domain.

The paper's "Implications" observation — requestor-aborts wins at
``k = 2``, requestor-wins for chains — is stated through competitive
ratios.  This experiment makes it measurable: for each chain size it
evaluates both strategies' optimal policies (and the hybrid pick)
against a common adversary ensemble, three ways:

* closed-form competitive ratio (the theory);
* numeric sup-ratio (quadrature + adversary grid — validates theory);
* Monte-Carlo mean cost against sampled remaining times (what a system
  would actually pay).
"""

from __future__ import annotations

from repro.core.hybrid import preferred_kind
from repro.core.model import ConflictKind, ConflictModel
from repro.core.ratios import rand_ra_ratio, rand_rw_optimal_ratio
from repro.core.requestor_aborts import optimal_requestor_aborts
from repro.core.requestor_wins import optimal_requestor_wins
from repro.core.verify import competitive_ratio, simulate_costs
from repro.rngutil import stream_for

__all__ = ["run_ext_chains"]


def run_ext_chains(
    *,
    B: float = 500.0,
    k_values: tuple[int, ...] = (2, 3, 4, 6, 10, 16),
    trials: int = 100_000,
    seed: int | None = None,
) -> list[dict[str, object]]:
    """One row per (k, strategy) with theory vs numeric vs Monte-Carlo."""
    rows: list[dict[str, object]] = []
    for k in k_values:
        rng = stream_for(seed, "ext_chains", k)
        # common adversary: remaining times uniform on (0, 2*cap]
        cap = B / (k - 1)
        remaining = (1.0 - rng.random(trials)) * 2.0 * cap
        entries = [
            (
                "RW",
                optimal_requestor_wins(B, k),
                ConflictModel(ConflictKind.REQUESTOR_WINS, B, k),
                rand_rw_optimal_ratio(k),
            ),
            (
                "RA",
                optimal_requestor_aborts(B, k),
                ConflictModel(ConflictKind.REQUESTOR_ABORTS, B, k),
                rand_ra_ratio(k),
            ),
        ]
        mc_costs = {}
        for label, policy, model, closed in entries:
            numeric = competitive_ratio(policy, model, grid=1024).ratio
            costs = simulate_costs(policy, model, remaining, rng)
            opt = model.opt_vec(remaining)
            mc_ratio = float(costs.sum() / opt.sum())
            mc_costs[label] = mc_ratio
            rows.append(
                {
                    "k": k,
                    "strategy": label,
                    "closed_ratio": closed,
                    "numeric_ratio": numeric,
                    "mc_cost_vs_OPT": mc_ratio,
                }
            )
        winner = min(mc_costs, key=mc_costs.get)  # type: ignore[arg-type]
        hybrid_pick = (
            "RA" if preferred_kind(k) is ConflictKind.REQUESTOR_ABORTS else "RW"
        )
        rows.append(
            {
                "k": k,
                "strategy": "HYBRID picks",
                "closed_ratio": min(
                    rand_ra_ratio(k), rand_rw_optimal_ratio(k)
                ),
                "numeric_ratio": float("nan"),
                "mc_cost_vs_OPT": mc_costs[hybrid_pick],
                "pick": hybrid_pick,
                "mc_winner": winner,
            }
        )
    return rows
