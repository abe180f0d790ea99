"""Ablation benches for the design choices DESIGN.md calls out.

* ``abl_delay_cap`` — how the competitive ratio degrades when the
  uniform policy's support cap deviates from ``B/(k-1)``.
* ``abl_hybrid`` — the RW/RA crossover and the hybrid resolver's ratio
  envelope over chain sizes (Section 1 "Implications").
* ``abl_mean_error`` — sensitivity of the mean-constrained policies to
  a mis-estimated µ (a profiler with bias).
* ``abl_wedge`` — the HTM simulator's wedge-aware immediate abort
  (structural D = inf) on vs off.
* ``abl_backoff`` — multiplicative vs additive abort-cost growth for
  the Corollary 2 progress mechanism.
"""

from __future__ import annotations

import numpy as np

from repro.adversary import TimedArena
from repro.core.hybrid import HybridResolver
from repro.core.model import ConflictKind, ConflictModel
from repro.core.ratios import rand_ra_ratio, rand_rw_optimal_ratio
from repro.core.requestor_wins import MeanConstrainedRW, UniformRW
from repro.core.verify import competitive_ratio, constrained_competitive_ratio
from repro.errors import InvalidParameterError
from repro.htm import Machine, MachineParams, RandDelay
from repro.rngutil import seedseq_for
from repro.sim.mc import TrialProgram
from repro.workloads import QueueWorkload

__all__ = [
    "run_abl_delay_cap",
    "run_abl_hybrid",
    "run_abl_mean_error",
    "run_abl_wedge",
    "run_abl_backoff",
    "run_abl_htm_resolution",
    "run_abl_sensitivity",
    "run_abl_k_aware",
]


class _CappedUniform(UniformRW):
    """Uniform delay policy with an arbitrary (non-optimal) cap."""

    def __init__(self, B: float, k: int, cap_factor: float) -> None:
        super().__init__(B, k)
        if cap_factor <= 0:
            raise InvalidParameterError("cap_factor must be positive")
        self._hi = cap_factor * B / (k - 1)
        self.cap_factor = cap_factor
        self.name = f"RRW(cap x{cap_factor:g})"
        self._grid_cache = None

    def pdf_vec(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(self._in_support(x), 1.0 / self._hi, 0.0)

    def cdf_vec(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip(x / self._hi, 0.0, 1.0)


def run_abl_delay_cap(
    *,
    B: float = 200.0,
    k_values: tuple[int, ...] = (2, 4),
    factors: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> list[dict[str, object]]:
    """Competitive ratio of uniform policies with caps around B/(k-1)."""
    rows = []
    for k in k_values:
        model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, k)
        for factor in factors:
            policy = _CappedUniform(B, k, factor)
            result = competitive_ratio(policy, model)
            rows.append(
                {
                    "k": k,
                    "cap_factor": factor,
                    "ratio": result.ratio,
                    "worst_D": result.worst_remaining,
                    "optimal_cap": factor == 1.0,
                }
            )
    return rows


def run_abl_hybrid(
    *, B: float = 200.0, k_values: tuple[int, ...] = (2, 3, 4, 6, 10, 20)
) -> list[dict[str, object]]:
    """RW vs RA optimal ratios over k, and the hybrid's choice."""
    resolver = HybridResolver(B)
    rows = []
    for k in k_values:
        rw = rand_rw_optimal_ratio(k)
        ra = rand_ra_ratio(k)
        rows.append(
            {
                "k": k,
                "ratio_RW": rw,
                "ratio_RA": ra,
                "hybrid_picks": resolver.preferred_kind(k).value,
                "hybrid_ratio": min(rw, ra),
            }
        )
    return rows


def run_abl_mean_error(
    *,
    B: float = 2000.0,
    mu_true: float = 250.0,
    error_factors: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> list[dict[str, object]]:
    """Constrained RW policy built with a biased mean estimate.

    The policy's guarantee is evaluated against adversaries with the
    *true* mean; an overestimate wastes the constraint, an underestimate
    voids the guarantee (the bound only covers mu_hat-mean adversaries).
    """
    model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, 2)
    rows = []
    for factor in error_factors:
        mu_hat = mu_true * factor
        if MeanConstrainedRW.regime_holds(B, mu_hat):
            policy: object = MeanConstrainedRW(B, mu_hat)
        else:
            policy = UniformRW(B, 2)
        achieved = constrained_competitive_ratio(policy, model, mu_true)
        promised = getattr(policy, "competitive_ratio", float("nan"))
        rows.append(
            {
                "mu_hat/mu": factor,
                "policy": policy.name,
                "promised_ratio_at_mu_hat": promised,
                "achieved_ratio_at_true_mu": achieved.ratio,
            }
        )
    return rows


def run_abl_wedge(
    *,
    threads: tuple[int, ...] = (4, 8),
    horizon: float = 200_000.0,
    seed: int | None = None,
) -> list[dict[str, object]]:
    """HTM throughput with and without wedge-aware immediate aborts."""
    rows = []
    for n in threads:
        for wedge in (True, False):
            params = MachineParams(n_cores=n)
            workload = QueueWorkload()
            machine = Machine(
                params, lambda i: RandDelay(), wedge_aware=wedge
            )
            machine.load(workload, seed=(seed or 0) + n)
            stats = machine.run(horizon)
            workload.verify(machine)
            rows.append(
                {
                    "threads": n,
                    "wedge_aware": wedge,
                    "ops": stats.ops_completed,
                    "abort_rate": stats.abort_rate,
                }
            )
    return rows


def run_abl_htm_resolution(
    *,
    threads: tuple[int, ...] = (4, 8),
    horizon: float = 200_000.0,
    seed: int | None = None,
) -> list[dict[str, object]]:
    """Extension ablation: conflict-resolution strategy inside the HTM.

    Compares requestor-wins (DELAY_RAND), requestor-aborts (NACK the
    requestor at grace expiry), the per-conflict hybrid of the paper's
    "Implications" section, and the online-µ policy (one
    ``RegimeAdaptiveDelay`` per machine, fed every commit), on the queue
    and transactional-app workloads.
    """
    from repro.htm import (
        GreedyCM,
        HybridDelay,
        RegimeAdaptiveDelay,
        RequestorAbortsDelay,
        commit_feed,
    )
    from repro.workloads import TxAppWorkload

    def factories():
        adaptive = RegimeAdaptiveDelay()
        return [
            ("RW (DELAY_RAND)", lambda i: RandDelay(), None),
            ("RA (NACK)", lambda i: RequestorAbortsDelay(), None),
            ("HYBRID", lambda i: HybridDelay(), None),
            ("ADAPTIVE", lambda i: adaptive, commit_feed(adaptive)),
            ("GREEDY_CM (global)", lambda i: GreedyCM(), None),
        ]

    rows = []
    for workload_name, workload_factory in (
        ("queue", QueueWorkload),
        ("txapp", lambda: TxAppWorkload(work_cycles=100)),
    ):
        for n in threads:
            for label, factory, feed in factories():
                params = MachineParams(n_cores=n)
                workload = workload_factory()
                machine = Machine(params, factory)
                if feed is not None:
                    machine.commit_observers.append(feed)
                machine.load(workload, seed=(seed or 0) + 31 * n)
                stats = machine.run(horizon)
                workload.verify(machine)
                rows.append(
                    {
                        "workload": workload_name,
                        "threads": n,
                        "resolution": label,
                        "ops": stats.ops_completed,
                        "abort_rate": round(stats.abort_rate, 3),
                        "nacks": stats.total("nacks_sent"),
                    }
                )
    return rows


def run_abl_sensitivity(
    *,
    abort_cycles: tuple[int, ...] = (24, 60, 120),
    overheads: tuple[int, ...] = (40, 100, 200),
    n_cores: int = 8,
    horizon: float = 120_000.0,
    seed: int | None = None,
) -> list[dict[str, object]]:
    """Sensitivity of the Figure 3 policy ordering to the calibration
    constants (DESIGN.md §5b.5).

    Sweeps the abort penalty and the policies' abort-cost overhead on
    the queue workload; the claim under test is that *which policy
    wins* (delays vs NO_DELAY) is stable across the plausible range,
    even though absolute throughput moves.
    """
    from repro.htm import NoDelay, RandDelay

    rows = []
    for ac in abort_cycles:
        for ao in overheads:
            params = MachineParams(
                n_cores=n_cores, abort_cycles=ac, abort_overhead=ao
            )
            ops = {}
            for label, factory in (
                ("NO_DELAY", lambda i: NoDelay()),
                ("DELAY_RAND", lambda i: RandDelay()),
            ):
                workload = QueueWorkload()
                machine = Machine(params, factory)
                machine.load(workload, seed=(seed or 0) + ac + ao)
                stats = machine.run(horizon)
                workload.verify(machine)
                ops[label] = stats.ops_completed
            rows.append(
                {
                    "abort_cycles": ac,
                    "abort_overhead": ao,
                    "NO_DELAY_ops": ops["NO_DELAY"],
                    "DELAY_RAND_ops": ops["DELAY_RAND"],
                    "delay_wins": ops["DELAY_RAND"] > ops["NO_DELAY"],
                }
            )
    return rows


class _KBlindRand:
    """DELAY_RAND with the chain size forced to 2 (ablation control).

    Theorems 5/6 cap delays at ``B/(k-1)``; this control ignores the
    observed chain and always uses the k = 2 support ``[0, B)``,
    overholding the line when k - 1 transactions wait behind it.
    """

    name = "DELAY_RAND_KBLIND"

    def decide(self, ctx, rng) -> int:
        return int(rng.random() * ctx.abort_cost)


def run_abl_k_aware(
    *,
    n_cores_values: tuple[int, ...] = (4, 8, 16),
    work_cycles: int = 150,
    horizon: float = 200_000.0,
    seed: int | None = None,
) -> list[dict[str, object]]:
    """Does the ``B/(k-1)`` chain scaling matter in a live machine?

    The shared counter with body work piles every core onto one line,
    building chains; the k-aware uniform policy shrinks its delays as
    waiters accumulate, the k-blind control does not.
    """
    from repro.htm import RandDelay
    from repro.workloads import CounterWorkload

    rows = []
    for n in n_cores_values:
        params = MachineParams(n_cores=n)
        ops = {}
        for label, factory in (
            ("k-aware (Thm 5/6)", lambda i: RandDelay()),
            ("k-blind (always k=2)", lambda i: _KBlindRand()),
        ):
            workload = CounterWorkload(work_cycles=work_cycles)
            machine = Machine(params, factory)
            machine.load(workload, seed=(seed or 0) + n)
            stats = machine.run(horizon)
            workload.verify(machine)
            ops[label] = stats.ops_completed
        rows.append(
            {
                "cores": n,
                "k_aware_ops": ops["k-aware (Thm 5/6)"],
                "k_blind_ops": ops["k-blind (always k=2)"],
                "k_aware_wins": ops["k-aware (Thm 5/6)"]
                >= ops["k-blind (always k=2)"],
            }
        )
    return rows


def run_abl_backoff(
    *,
    B0: float = 64.0,
    y: float = 2000.0,
    gamma: int = 3,
    trials: int = 300,
    seed: int | None = None,
    engine: str = "batch",
    pool=None,
) -> list[dict[str, object]]:
    """Multiplicative vs additive abort-cost growth: attempts to commit.

    Each variant's ``trials`` transactions run through the batched SoA
    engine (``repro.sim.mc``) via :meth:`TimedArena.run_batch`;
    ``engine="scalar"`` replays the same draws through the original
    per-trial ``run_transaction`` loop (bit-identical rows).
    """
    arena = TimedArena()
    conflicts = tuple(
        (y * (1.0 - (i + 0.5) / gamma) + 1.0, 2) for i in range(gamma)
    )
    rows = []
    variants = [
        ("x2.0 (paper)", dict(factor=2.0, increment=0.0)),
        ("x1.5", dict(factor=1.5, increment=0.0)),
        ("+B0 additive", dict(factor=1.0, increment=B0)),
        ("+4B0 additive", dict(factor=1.0, increment=4 * B0)),
    ]
    for label, kwargs in variants:
        program = TrialProgram(rho=y, conflicts=conflicts, k=2, B0=B0, **kwargs)
        results = arena.run_batch(
            program,
            trials,
            seed=seedseq_for(seed, "abl_backoff", label),
            engine=engine,
            pool=pool,
        )
        arr = results.attempts.astype(float)
        rows.append(
            {
                "growth": label,
                "median_attempts": float(np.median(arr)),
                "p90_attempts": float(np.percentile(arr, 90)),
                "max_attempts": int(arr.max()),
            }
        )
    return rows
