"""Time-resolved throughput experiment (extension).

Runs the event-driven arena under both adversary processes to make the
boundary of the paper's conflict model measurable:

* ``per_attempt`` (the Section 6 assumption — a fixed conflict budget
  per attempt, policy-independent): the delay policies must win;
* ``rate`` (conflicts proportional to exposure time — outside the
  model): immediate abort gains an advantage the analysis does not
  claim to cover.
"""

from __future__ import annotations

from repro.adversary.throughput_arena import ThroughputArena
from repro.core.model import ConflictKind, ConflictModel
from repro.core.policy import ImmediateAbortPolicy
from repro.core.requestor_wins import DeterministicRW, UniformRW
from repro.core.verify import expected_cost
from repro.distributions import UniformLengths

__all__ = ["run_ext_throughput"]


def _theory_costs(
    policies: list, B: float, mu: float
) -> tuple[dict[str, float], float]:
    """Expected per-conflict cost of each arena policy at the mean
    remaining time ``D = µ/2``, plus OPT's cost there (one quadrature
    per policy, shared by both adversary modes)."""
    model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, 2)
    costs = {
        label: expected_cost(policy, model, mu / 2.0)
        for label, policy in policies
    }
    return costs, model.opt(mu / 2.0)


def run_ext_throughput(
    *,
    n_threads: int = 8,
    mu: float = 500.0,
    B: float = 1000.0,
    horizon: float = 300_000.0,
    p_conflict: float = 0.8,
    conflict_rate: float = 0.02,
    seed: int | None = None,
) -> list[dict[str, object]]:
    policies = [
        ("NO_DELAY", ImmediateAbortPolicy()),
        ("RRW (uniform)", UniformRW(B)),
        ("DET (B/(k-1))", DeterministicRW(B)),
    ]
    theory, opt_ref = _theory_costs(policies, B, mu)
    rows: list[dict[str, object]] = []
    for mode in ("per_attempt", "rate"):
        for label, policy in policies:
            arena = ThroughputArena(
                n_threads,
                UniformLengths(mu),
                policy,
                B=B,
                adversary=mode,
                p_conflict=p_conflict,
                conflict_rate=conflict_rate,
            )
            trace = arena.run(horizon, window=horizon / 20, seed=seed)
            rows.append(
                {
                    "adversary": mode,
                    "policy": label,
                    "commits": trace.total_commits,
                    "aborts": trace.total_aborts,
                    "mean_gamma": round(trace.mean_gamma, 1),
                    "theory_cost": round(theory[label], 1),
                    "theory_vs_OPT": round(theory[label] / opt_ref, 2),
                }
            )
    return rows
