"""Arenas: run policies against adversarial schedules.

Two complementary arenas:

* :class:`ConflictLedgerArena` — the exact accounting of the
  Corollary 1 proof.  Every conflict ``C`` is charged to its receiver:
  the online algorithm pays the realized conflict cost, the offline
  optimum pays ``min((k-1)D, B)``, and the global sums are
  ``sum(rho) + sum(conflict costs)`` on each side.  The arena reports
  the measured ratio together with the proof's bound
  ``(2w+1)/(w+1)`` where ``w = sum(OPT conflict costs)/sum(rho)``.

* :class:`TimedArena` — an event-driven execution where transactions
  actually retry after aborts and the adversary re-inflicts its
  conflict schedule on every attempt.  This is the substrate for the
  Corollary 2 progress experiments (attempts-to-commit under
  multiplicative backoff) and for throughput-over-time curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.adversary.schedule import Conflict, ConflictSchedule
from repro.core.backoff import BackoffPolicy
from repro.core.model import ConflictKind, ConflictModel
from repro.core.policy import DelayPolicy
from repro.core.ratios import corollary1_bound
from repro.errors import InvalidParameterError, SimulationError
from repro.rngutil import ensure_rng

__all__ = ["ArenaOutcome", "ConflictLedgerArena", "TimedArena", "AttemptRecord"]


@dataclass
class ArenaOutcome:
    """Result of a ledger-arena run."""

    online_total: float
    offline_total: float
    total_rho: float
    n_conflicts: int
    online_conflict_cost: float
    offline_conflict_cost: float

    @property
    def ratio(self) -> float:
        """Measured ``sum Gamma(T, A) / sum Gamma(T, OPT)``."""
        return self.online_total / self.offline_total

    @property
    def waste(self) -> float:
        """``w(S)`` — offline conflict cost over conflict-free work."""
        return self.offline_conflict_cost / self.total_rho

    @property
    def corollary1_bound(self) -> float:
        """``(2w + 1)/(w + 1)`` — the proof's bound for this schedule."""
        return corollary1_bound(self.waste)

    def within_bound(self, slack: float = 0.0) -> bool:
        return self.ratio <= self.corollary1_bound + slack


class ConflictLedgerArena:
    """Amortized (per-conflict) accounting, exactly as in Corollary 1.

    Parameters
    ----------
    kind:
        Conflict resolution strategy (both sides use the same kind).
    B:
        Abort cost.
    policy_factory:
        ``k -> DelayPolicy`` giving the online policy per chain size.
        Policies are cached per k.
    """

    def __init__(
        self,
        kind: ConflictKind,
        B: float,
        policy_factory: Callable[[int], DelayPolicy],
    ) -> None:
        if B <= 0:
            raise InvalidParameterError(f"B must be positive, got {B}")
        self.kind = kind
        self.B = float(B)
        self._factory = policy_factory
        self._policies: dict[int, DelayPolicy] = {}
        self._models: dict[int, ConflictModel] = {}

    def policy_for(self, k: int) -> DelayPolicy:
        pol = self._policies.get(k)
        if pol is None:
            pol = self._factory(k)
            self._policies[k] = pol
        return pol

    def model_for(self, k: int) -> ConflictModel:
        m = self._models.get(k)
        if m is None:
            m = ConflictModel(self.kind, self.B, k)
            self._models[k] = m
        return m

    def run(
        self,
        schedule: ConflictSchedule,
        rng: np.random.Generator | int | None = None,
    ) -> ArenaOutcome:
        """Score the schedule: one policy draw per conflict (vectorized
        per chain size)."""
        gen = ensure_rng(rng)
        schedule.validate()
        total_rho = schedule.total_rho()
        online = 0.0
        offline = 0.0
        # group conflicts by chain size for vectorized scoring
        by_k: dict[int, list[Conflict]] = {}
        for c in schedule.conflicts:
            by_k.setdefault(c.k, []).append(c)
        for k, conflicts in sorted(by_k.items()):
            model = self.model_for(k)
            policy = self.policy_for(k)
            remaining = np.asarray([c.remaining for c in conflicts])
            delays = policy.sample_many(remaining.size, gen)
            online += float(model.cost_vec(delays, remaining).sum())
            offline += float(model.opt_vec(remaining).sum())
        return ArenaOutcome(
            online_total=total_rho + online,
            offline_total=total_rho + offline,
            total_rho=total_rho,
            n_conflicts=len(schedule),
            online_conflict_cost=online,
            offline_conflict_cost=offline,
        )


@dataclass
class AttemptRecord:
    """Outcome of executing one transaction to commit in the timed arena."""

    attempts: int
    total_time: float
    committed: bool
    waiter_delay: float
    final_B: float


class TimedArena:
    """Execute transactions with retries against a per-attempt adversary.

    Every *attempt* at a transaction of commit cost ``rho`` faces the
    conflicts the adversary pins to it (as (remaining, k) pairs, struck
    in chronological order).  Surviving a conflict (delay >= remaining)
    lets the attempt run on — later conflicts can still strike it.  An
    abort charges the wasted progress plus the grace period, and the
    transaction retries; a :class:`~repro.core.backoff.BackoffPolicy`
    grows its abort cost between attempts (Corollary 2's mechanism).

    The requestor-wins discipline is simulated (the receiver is the
    transaction we track; waiter delays are charged to
    ``waiter_delay``).
    """

    def __init__(
        self,
        kind: ConflictKind = ConflictKind.REQUESTOR_WINS,
        *,
        max_attempts: int = 10_000,
    ) -> None:
        if max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.kind = kind
        self.max_attempts = max_attempts

    def run_transaction(
        self,
        rho: float,
        conflicts: list[tuple[float, int]],
        policy: DelayPolicy,
        rng: np.random.Generator | int | None = None,
    ) -> AttemptRecord:
        """Drive one transaction to commit.

        ``conflicts`` is the adversary's per-attempt plan: a list of
        ``(remaining, k)`` with ``0 < remaining <= rho``; each attempt
        faces all of them in order of decreasing remaining time
        (i.e. chronological).
        """
        if rho <= 0:
            raise InvalidParameterError(f"rho must be positive, got {rho}")
        for remaining, k in conflicts:
            if not 0.0 < remaining <= rho:
                raise SimulationError(
                    f"conflict remaining {remaining} outside (0, {rho}]"
                )
            if k < 2:
                raise SimulationError(f"chain size {k} < 2")
        gen = ensure_rng(rng)
        ordered = sorted(conflicts, key=lambda rk: -rk[0])  # chronological
        total_time = 0.0
        waiter_delay = 0.0
        is_backoff = isinstance(policy, BackoffPolicy)

        for attempt in range(1, self.max_attempts + 1):
            aborted = False
            for remaining, k in ordered:
                delay = policy.sample(gen)
                if remaining <= delay:
                    # receiver survives: the k-1 waiters stalled for the
                    # receiver's remaining run
                    waiter_delay += (k - 1) * remaining
                    continue
                # receiver aborts after `delay` extra steps at progress
                # rho - remaining
                progress = rho - remaining
                total_time += progress + delay
                waiter_delay += (k - 1) * delay
                aborted = True
                break
            if not aborted:
                total_time += rho
                if is_backoff:
                    policy.record_commit()
                return AttemptRecord(
                    attempts=attempt,
                    total_time=total_time,
                    committed=True,
                    waiter_delay=waiter_delay,
                    final_B=policy.current_B if is_backoff else math.nan,
                )
            if is_backoff:
                policy.record_abort()
        return AttemptRecord(
            attempts=self.max_attempts,
            total_time=total_time,
            committed=False,
            waiter_delay=waiter_delay,
            final_B=policy.current_B if is_backoff else math.nan,
        )

    def run_batch(
        self,
        program,
        n_trials: int,
        *,
        seed=None,
        path: tuple = (),
        engine: str = "batch",
        n_shards: int | None = None,
        pool=None,
    ):
        """Run ``n_trials`` independent copies of a
        :class:`repro.sim.mc.TrialProgram` through the batched SoA
        engine (``repro.sim.mc``), honoring this arena's attempt cap.

        Returns a :class:`repro.sim.mc.TrialResults`; rows are
        bit-identical to per-trial :meth:`run_transaction` calls fed
        from the same draw layout (``engine="scalar"`` runs exactly
        that as the golden reference).
        """
        from dataclasses import replace

        from repro.sim import mc  # deferred: repro.sim.mc imports us

        if program.max_attempts != self.max_attempts:
            program = replace(program, max_attempts=self.max_attempts)
        kwargs = {} if n_shards is None else {"n_shards": n_shards}
        return mc.run_trials(
            program, n_trials, seed=seed, path=path, engine=engine,
            pool=pool, **kwargs,
        )

    def run_many(
        self,
        rhos: np.ndarray,
        conflicts_fn: Callable[[float], list[tuple[float, int]]],
        policy_factory: Callable[[], DelayPolicy],
        rng: np.random.Generator | int | None = None,
    ) -> list[AttemptRecord]:
        """Drive a batch of transactions, a fresh policy instance each
        (backoff state is per-transaction)."""
        gen = ensure_rng(rng)
        return [
            self.run_transaction(float(rho), conflicts_fn(float(rho)),
                                 policy_factory(), gen)
            for rho in np.asarray(rhos, dtype=float)
        ]
