"""Online transaction-length profiling (extension).

Section 5.2 motivates the mean-constrained policies with "a profiler
which records the empirical mean over all successful executions of a
transaction, and uses this information when deciding the grace period
length".  The paper's experiments hand that mean to the policies
offline; this module closes the loop *online*: a per-machine profiler
accumulates committed-transaction durations, and
:class:`AdaptiveDelay` feeds the running mean into the mean-constrained
optimal policy — no offline tuning step, no workload knowledge.

Until enough commits have been observed (``warmup``), the policy falls
back to the unconstrained uniform optimum, so cold-start behaviour is
exactly DELAY_RAND.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import InvalidParameterError
from repro.htm.conflict_policy import ConflictContext, _RWTablePolicy, _bucket
from repro.sim.stats import Welford

__all__ = ["CommitProfiler", "AdaptiveDelay"]


class CommitProfiler:
    """Shared accumulator of committed-transaction durations.

    One instance per machine; every core's :class:`AdaptiveDelay`
    observes commits into it and reads the running mean.  The profiler
    tracks full execution-to-commit durations; the theory's µ is the
    mean *remaining* time at conflict, which for a conflict striking at
    a uniformly random point is half the mean duration — hence the 0.5
    factor in :meth:`mu_estimate` (the same convention as the synthetic
    harness's ``mu_source`` discussion).
    """

    def __init__(self, *, remaining_fraction: float = 0.5) -> None:
        if not 0.0 < remaining_fraction <= 1.0:
            raise InvalidParameterError(
                f"remaining_fraction must be in (0, 1], got {remaining_fraction}"
            )
        self.durations = Welford()
        self.remaining_fraction = remaining_fraction

    def observe_commit(self, duration_cycles: float) -> None:
        if duration_cycles < 0:
            raise InvalidParameterError(
                f"duration must be >= 0, got {duration_cycles}"
            )
        self.durations.add(float(duration_cycles))

    @property
    def n(self) -> int:
        return self.durations.n

    def record(self, event) -> None:
        """Trace-bus sink: observe commit events straight off the bus.

        Lets a profiler be fed by ``bus.subscribe(profiler)`` instead of
        the machine's ``commit_observers`` hook — same event schema as
        every other sink (docs/OBSERVABILITY.md).  Note bus events carry
        the *true* duration; estimator-noise faults only perturb the
        commit-observer path.
        """
        if event.kind == "commit" and "duration" in event.detail:
            self.observe_commit(float(event.detail["duration"]))

    def mu_estimate(self) -> float:
        """Estimated mean remaining time at conflict (NaN until data)."""
        if self.durations.n == 0:
            return math.nan
        return self.durations.mean * self.remaining_fraction


class AdaptiveDelay(_RWTablePolicy):
    """Mean-constrained optimal delays with a *live* profiled mean.

    Parameters
    ----------
    profiler:
        Shared :class:`CommitProfiler` (one per machine).
    warmup:
        Committed transactions required before trusting the estimate.
    refresh:
        Re-pick each ``(B, k)``'s family from the drifting mean after
        this many new commits; one the ending epoch drew from is reused.
    """

    name = "DELAY_ADAPTIVE"

    def __init__(
        self,
        profiler: CommitProfiler,
        *,
        warmup: int = 32,
        refresh: int = 256,
    ) -> None:
        if warmup < 1 or refresh < 1:
            raise InvalidParameterError("warmup and refresh must be >= 1")
        super().__init__()
        self.profiler = profiler
        self.warmup = warmup
        self.refresh = refresh
        self._cache_n = -1

    def decide(self, ctx: ConflictContext, rng: np.random.Generator) -> int:
        mu = None
        if self.profiler.n >= self.warmup:
            mu = self.profiler.mu_estimate()
        # enough new data starts an epoch: each (B, k) re-picks its family
        if (
            self._cache_n >= 0
            and self.profiler.n - self._cache_n >= self.refresh
        ):
            live = list(self._cache.values())  # what the new epoch may reuse
            self._dists = {f: d for f, d in self._dists.items() if d in live}
            self._cache.clear()
            self._cache_n = self.profiler.n
        elif self._cache_n < 0:
            self._cache_n = self.profiler.n
        B = _bucket(max(ctx.abort_cost, 1))
        key = (B, ctx.chain_k)
        policy = self._cache.get(key)
        if policy is None:
            policy = self._pick(key, B, ctx.chain_k, mu)
        return int(policy.sample(rng))
