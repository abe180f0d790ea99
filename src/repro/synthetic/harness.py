"""The Section 8.1 synthetic testbed.

Per trial (quoting the paper's procedure): draw the transaction length
``r`` from a given length distribution; pick the interrupt point ``i``
uniformly at random from that length (so the unknown remaining time is
``D = r - i``); let each policy pick its delay ``j``; score the conflict
cost under the policy's cost model.  Averages over many trials populate
Figure 2's bars.

All trials for a policy are evaluated in one vectorized pass (one
``sample`` call on the distribution, one ``sample_many`` on the policy,
one ``cost_vec`` on the model).

Two harness details the paper leaves implicit, both configurable:

* ``mu_source`` — the mean fed to the constrained policies.  The figure
  captions quote the *length* mean (µ = 500), so ``"length"`` is the
  default; ``"remaining"`` uses the true mean of ``D`` (= µ/2 under the
  uniform interrupt), the quantity the theorems actually constrain.
* ``interrupt`` — ``"uniform"`` implements the paper's procedure;
  ``"direct"`` feeds the drawn value in as ``D`` itself, which is how
  the Figure 2c worst-case adversary chooses the remaining time
  directly (Theorem 4's lower-bound argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import ConflictKind, ConflictModel
from repro.core.oracle import ClairvoyantPolicy
from repro.core.policy import DelayPolicy
from repro.core.requestor_aborts import optimal_requestor_aborts
from repro.core.requestor_wins import optimal_requestor_wins
from repro.distributions.base import LengthDistribution
from repro.errors import InvalidParameterError
from repro.obs.metrics import get_registry
from repro.obs.tracebus import NO_SIM_TIME, get_bus
from repro.rngutil import DEFAULT_SEED, ensure_rng
from repro.sim.stats import Welford

__all__ = ["SyntheticHarness", "SyntheticResult", "default_policy_suite", "PolicyEntry"]


def _shard_worker(
    harness: "SyntheticHarness",
    dist: LengthDistribution,
    trials: int,
    seedseq: "np.random.SeedSequence",
    batch: int,
) -> dict[str, Welford]:
    """One trial shard (module-level so process pools can pickle it).

    Takes its stream as an explicit ``SeedSequence`` argument — never
    constructs RNG state of its own (simlint DET004): shard streams
    must be spawned by the caller so the shard tree is a pure function
    of ``(seed, n_shards)``, not of which worker ran what.
    """
    return harness._accumulate(dist, trials, np.random.default_rng(seedseq), batch)


@dataclass(frozen=True)
class PolicyEntry:
    """A named policy bound to the conflict model it is scored under."""

    label: str
    policy: DelayPolicy
    model: ConflictModel


def default_policy_suite(
    B: float, mu: float, k: int = 2
) -> list[PolicyEntry]:
    """The six strategies of Figure 2, by their paper abbreviations.

    RRW(mu) / RRA(mu) — randomized with the mean constraint;
    RRW / RRA — randomized unconstrained; DET — optimal deterministic
    requestor-wins; OPT — offline optimum (scored as ``min((k-1)D, B)``).
    """
    rw = ConflictModel(ConflictKind.REQUESTOR_WINS, B, k)
    ra = ConflictModel(ConflictKind.REQUESTOR_ABORTS, B, k)
    entries = [
        PolicyEntry("RRW(mu)", optimal_requestor_wins(B, k, mu), rw),
        PolicyEntry("RRA(mu)", optimal_requestor_aborts(B, k, mu), ra),
        PolicyEntry("RRW", optimal_requestor_wins(B, k), rw),
        PolicyEntry("RRA", optimal_requestor_aborts(B, k), ra),
        PolicyEntry("DET", optimal_requestor_wins(B, k, deterministic=True), rw),
        PolicyEntry("OPT", ClairvoyantPolicy(rw), rw),
    ]
    return entries


@dataclass
class SyntheticResult:
    """Average conflict costs per policy for one (distribution, B, µ)."""

    distribution: str
    B: float
    mu: float
    trials: int
    stats: dict[str, Welford] = field(default_factory=dict)

    def mean_cost(self, label: str) -> float:
        return self.stats[label].mean

    def normalized(self, baseline: str = "OPT") -> dict[str, float]:
        """Mean costs divided by the baseline's mean cost."""
        base = self.mean_cost(baseline)
        return {label: acc.mean / base for label, acc in self.stats.items()}

    def as_rows(self) -> list[tuple[str, float, float]]:
        """``(label, mean, sem)`` rows sorted by mean cost."""
        rows = [
            (label, acc.mean, acc.sem) for label, acc in self.stats.items()
        ]
        rows.sort(key=lambda row: row[1])
        return rows


class SyntheticHarness:
    """Vectorized trial loop over a policy suite."""

    def __init__(
        self,
        B: float,
        mu: float,
        *,
        k: int = 2,
        policies: list[PolicyEntry] | None = None,
        mu_source: str = "length",
        interrupt: str = "uniform",
    ) -> None:
        if B <= 0 or mu <= 0:
            raise InvalidParameterError(f"need B > 0 and mu > 0, got {B}, {mu}")
        if mu_source not in ("length", "remaining"):
            raise InvalidParameterError(f"unknown mu_source {mu_source!r}")
        if interrupt not in ("uniform", "direct"):
            raise InvalidParameterError(f"unknown interrupt mode {interrupt!r}")
        self.B = float(B)
        self.mu = float(mu)
        self.k = k
        self.mu_source = mu_source
        self.interrupt = interrupt
        effective_mu = self.mu if mu_source == "length" else self.mu / 2.0
        self.policies = (
            policies
            if policies is not None
            else default_policy_suite(B, effective_mu, k)
        )

    # ------------------------------------------------------------------
    def draw_remaining(
        self, dist: LengthDistribution, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n`` remaining times per the configured interrupt mode."""
        lengths = dist.sample(n, rng)
        if self.interrupt == "direct":
            return lengths
        # interrupt point i ~ U[0, r); remaining D = r - i = r * (1 - u)
        # which is r * u' with u' uniform in (0, 1].
        return lengths * (1.0 - rng.random(n))

    def run(
        self,
        dist: LengthDistribution,
        trials: int,
        rng: np.random.Generator | int | np.random.SeedSequence | None = None,
        *,
        batch: int = 100_000,
        n_shards: int = 1,
        pool=None,
    ) -> SyntheticResult:
        """Score every policy on ``trials`` conflicts drawn from ``dist``.

        All policies see the *same* remaining-time draws (common random
        numbers — variance reduction for the cross-policy comparison).

        ``n_shards > 1`` splits the trials into independently seeded
        shards (``SeedSequence`` spawning; CRN still holds within each
        shard) and combines per-shard accumulators with
        :meth:`Welford.merge_all` **in shard order** — so the result is
        bit-identical for a fixed ``(rng, n_shards)`` whether the
        shards run serially or on ``pool`` (an object with ``starmap``,
        e.g. :class:`repro.parallel.SupervisedPool`).  Sharded runs need a
        seed or ``SeedSequence``, not a live ``Generator``: an opaque
        generator cannot be split into independent streams
        deterministically.
        """
        if trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {trials}")
        if n_shards < 1:
            raise InvalidParameterError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        if n_shards == 1:
            stats = self._accumulate(dist, trials, ensure_rng(rng), batch)
            return self._observed(
                SyntheticResult(
                    distribution=dist.name,
                    B=self.B,
                    mu=self.mu,
                    trials=trials,
                    stats=stats,
                )
            )
        if isinstance(rng, np.random.Generator):
            raise InvalidParameterError(
                "sharded runs (n_shards > 1) need an int seed or "
                "SeedSequence, not a Generator: a live generator cannot "
                "be split into deterministic independent streams"
            )
        root = (
            rng
            if isinstance(rng, np.random.SeedSequence)
            else np.random.SeedSequence(
                DEFAULT_SEED if rng is None else int(rng)
            )
        )
        children = root.spawn(n_shards)
        base, extra = divmod(trials, n_shards)
        tasks = [
            (self, dist, base + (1 if i < extra else 0), children[i], batch)
            for i in range(n_shards)
            if base + (1 if i < extra else 0) > 0
        ]
        if pool is None:
            shard_stats = [_shard_worker(*task) for task in tasks]
        else:
            shard_stats = pool.starmap(_shard_worker, tasks)
        labels = [entry.label for entry in self.policies]
        return self._observed(
            SyntheticResult(
                distribution=dist.name,
                B=self.B,
                mu=self.mu,
                trials=trials,
                stats={
                    label: Welford.merge_all(s[label] for s in shard_stats)
                    for label in labels
                },
            )
        )

    def _observed(self, result: SyntheticResult) -> SyntheticResult:
        """Publish one ``synthetic_run`` record per finished run.

        Emitted once in the *calling* process after any shard merge, so
        the counter and event stream are invariant to sharding and pool
        choice.  No-ops when observability is off.
        """
        registry, bus = get_registry(), get_bus()
        if registry.enabled:
            registry.counter("synthetic_runs").inc()
            registry.counter("synthetic_trials").inc(result.trials)
        if bus.enabled:
            bus.emit(
                NO_SIM_TIME,
                "synthetic_run",
                -1,
                distribution=result.distribution,
                trials=result.trials,
                B=result.B,
                mu=result.mu,
                means={
                    label: acc.mean for label, acc in result.stats.items()
                },
            )
        return result

    def _accumulate(
        self,
        dist: LengthDistribution,
        trials: int,
        gen: np.random.Generator,
        batch: int,
    ) -> dict[str, Welford]:
        """The vectorized trial loop for one stream (= one shard)."""
        stats = {entry.label: Welford() for entry in self.policies}
        done = 0
        while done < trials:
            n = min(batch, trials - done)
            remaining = self.draw_remaining(dist, n, gen)
            for entry in self.policies:
                costs = self._score(entry, remaining, gen)
                stats[entry.label].add_many(costs)
            done += n
        return stats

    def _score(
        self,
        entry: PolicyEntry,
        remaining: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if isinstance(entry.policy, ClairvoyantPolicy):
            return entry.model.opt_vec(remaining)
        delays = entry.policy.sample_many(remaining.size, rng)
        return entry.model.cost_vec(delays, remaining)

    # ------------------------------------------------------------------
    def sweep(
        self,
        dists: list[LengthDistribution],
        trials: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[SyntheticResult]:
        """One :meth:`run` per distribution (the Figure 2 x-axis)."""
        gen = ensure_rng(rng)
        return [self.run(dist, trials, gen) for dist in dists]
