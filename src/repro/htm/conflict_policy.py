"""Cycle-granular conflict policies for the HTM simulator.

When a coherence probe conflicts with a receiver transaction, the
receiver's HTM controller consults one of these policies for the grace
period (in whole cycles).  The abort-cost estimate follows the paper's
footnote 1: ``B = tx_age + abort_overhead`` — the work that would be
thrown away plus the fixed cleanup cost — and the chain size ``k`` is
the number of transactions in the waits-for chain at decision time.

The four Figure 3 series map to:

========  =====================================================
NO_DELAY      :class:`NoDelay` (stock requestor-wins HTM)
DELAY_TUNED   :class:`TunedDelay` with the profiled mean
              fast-path transaction length
DELAY_DET     :class:`DetDelay` — Theorem 4's ``B/(k-1)``
DELAY_RAND    :class:`RandDelay` — Theorem 5's uniform draw
========  =====================================================

plus :class:`RRWMeanDelay` (the mean-constrained optimal policy) and
:class:`RegimeAdaptiveDelay` (online-estimated regime dispatch, the decision
service's default) as extension series.

Section 5.2's profiler, "which records the empirical mean over all
successful executions", is one :class:`RegimeAdaptiveDelay` per machine,
shared by its cores and fed every commit through :func:`commit_feed`.
"""

from __future__ import annotations

import abc
import math
import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.estimators import EstimateSnapshot, OnlineEstimator
from repro.core.hybrid import preferred_kind
from repro.core.ratios import rw_mean_regime_threshold
from repro.core.requestor_wins import optimal_requestor_wins
from repro.errors import InvalidParameterError
from repro.htm.params import MachineParams
from repro.obs.metrics import get_registry

__all__ = [
    "ConflictContext",
    "CyclePolicy",
    "NoDelay",
    "TunedDelay",
    "DetDelay",
    "RandDelay",
    "RRWMeanDelay",
    "RequestorAbortsDelay",
    "HybridDelay",
    "GreedyCM",
    "RegimeAdaptiveDelay",
    "REMAINING_FRACTION",
    "commit_feed",
    "policy_from_name",
]


#: The theory's µ is the mean *remaining* time at a conflict.  A
#: conflict strikes a uniformly random point of an execution, so an HTM
#: µ is this fraction of a committed duration.  Every HTM µ source
#: scales by it: the oracle and offline profiles and the online feeds.
REMAINING_FRACTION = 0.5

#: The live requestor-wins distribution per ``(B-bucket, k, family)``,
#: shared by every policy instance in the process: a distribution and
#: its inverse-CDF grid depend on nothing else.  Weak values, so a
#: distribution no live policy holds is freed with its grid.
_LIVE_DISTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _bucket(B: int) -> int:
    """Round ``B`` to the nearest power of 1.25 (1 for ``B < 1``): the
    policy caches' B key, small while the density tracks B."""
    if B < 1:
        return 1
    return int(round(1.25 ** round(math.log(B, 1.25))))


@dataclass(slots=True)
class ConflictContext:
    """Everything the receiver knows at conflict time.

    Slotted, not frozen, like the ISA records: one is built per
    conflict, and nothing mutates it after construction.

    Attributes
    ----------
    tx_age:
        Cycles the receiver transaction has been running.
    chain_k:
        Transactions in the conflict chain (receiver + waiters), >= 2.
    params:
        Machine parameters (for the abort-overhead constant).
    """

    tx_age: int
    chain_k: int
    params: MachineParams
    #: Requestor transaction's age in cycles, or None when the
    #: requestor is non-transactional.  Local online policies must NOT
    #: read this — it exists for the global-knowledge contention-manager
    #: baselines the paper contrasts itself against (GreedyCM).
    requestor_age: int | None = None

    def __post_init__(self) -> None:
        if self.tx_age < 0:
            raise InvalidParameterError(f"tx_age must be >= 0, got {self.tx_age}")
        if self.chain_k < 2:
            raise InvalidParameterError(f"chain_k must be >= 2, got {self.chain_k}")
        if self.requestor_age is not None and self.requestor_age < 0:
            raise InvalidParameterError(
                f"requestor_age must be >= 0, got {self.requestor_age}"
            )

    @property
    def abort_cost(self) -> int:
        """``B = tx_age + abort_overhead`` (paper footnote 1)."""
        return self.tx_age + self.params.abort_overhead


class CyclePolicy(abc.ABC):
    """A conflict-delay policy at cycle granularity."""

    name: str = "policy"

    @abc.abstractmethod
    def decide(self, ctx: ConflictContext, rng: np.random.Generator) -> int:
        """Grace period in cycles (0 = abort the receiver immediately)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class _RWTablePolicy(CyclePolicy):
    """Draws optimal requestor-wins delays: ``_cache`` maps a subclass's
    key to one of ``_dists``, built once per ``(B, k, family)``.  The
    densities hold no µ (Theorems 5 and 6); µ only picks the family:
    ``RRW`` (closed-form inverse) or ``RRW(mu)`` (an inverse-CDF grid).
    A family another live policy already holds is taken from
    ``_LIVE_DISTS``, grid and all; the counts stay per instance."""

    def __init__(self) -> None:
        self._cache: dict[tuple, object] = {}
        self._dists: dict[tuple[int, int, str], object] = {}
        #: inverse-CDF grids built: one per ``RRW(mu)`` distribution
        self.grid_builds = 0

    def _pick(self, key: tuple, B: int, k: int, mu: float | None):
        policy = optimal_requestor_wins(float(B), k, mu)
        family = (B, k, policy.name)
        if family not in self._dists:
            get_registry().counter("policy_builds").inc()
            self.grid_builds += policy.name == "RRW(mu)"
            self._dists[family] = _LIVE_DISTS.setdefault(family, policy)
        self._cache[key] = self._dists[family]
        return self._cache[key]


class NoDelay(CyclePolicy):
    """Abort the receiver immediately — baseline requestor-wins HTM."""

    name = "NO_DELAY"

    def decide(self, ctx: ConflictContext, rng: np.random.Generator) -> int:
        return 0


class TunedDelay(CyclePolicy):
    """Hand-tuned fixed delay (Figure 3's DELAY_TUNED).

    The operator profiles the workload and supplies the mean fast-path
    transaction length; the receiver then always waits that long
    (scaled by ``fraction``, default 1).  Predictably good when lengths
    are stable, poor when they are bimodal — exactly the published
    behaviour.
    """

    name = "DELAY_TUNED"

    def __init__(self, tuned_cycles: int, *, fraction: float = 1.0) -> None:
        if tuned_cycles < 0:
            raise InvalidParameterError(
                f"tuned_cycles must be >= 0, got {tuned_cycles}"
            )
        if fraction <= 0:
            raise InvalidParameterError(f"fraction must be > 0, got {fraction}")
        self.tuned_cycles = tuned_cycles
        self.fraction = fraction

    def decide(self, ctx: ConflictContext, rng: np.random.Generator) -> int:
        return int(round(self.tuned_cycles * self.fraction))


class DetDelay(CyclePolicy):
    """Theorem 4's optimal deterministic rule: wait ``B/(k-1)``."""

    name = "DELAY_DET"

    def decide(self, ctx: ConflictContext, rng: np.random.Generator) -> int:
        return int(ctx.abort_cost // (ctx.chain_k - 1))


class RandDelay(CyclePolicy):
    """Theorem 5's optimal randomized rule: uniform on ``[0, B/(k-1))``."""

    name = "DELAY_RAND"

    def decide(self, ctx: ConflictContext, rng: np.random.Generator) -> int:
        cap = ctx.abort_cost / (ctx.chain_k - 1)
        return int(rng.random() * cap)


class RRWMeanDelay(CyclePolicy):
    """The mean-constrained optimal requestor-wins policy at cycle
    granularity (uses the profiled mean remaining time ``mu_cycles``).

    Falls back to the unconstrained optimum whenever ``mu/B`` leaves the
    Theorem 5/6 regime at the observed ``B`` (the factory handles it).
    Policies are cached per (B, k) bucket — B is bucketed to powers of
    ~1.25 so the cache stays small while the delay distribution tracks
    the transaction age.
    """

    name = "DELAY_RRW_MU"

    def __init__(self, mu_cycles: float) -> None:
        if mu_cycles <= 0:
            raise InvalidParameterError(f"mu_cycles must be > 0, got {mu_cycles}")
        self.mu_cycles = float(mu_cycles)
        self._cache: dict[tuple[int, int], object] = {}

    def decide(self, ctx: ConflictContext, rng: np.random.Generator) -> int:
        B = _bucket(max(ctx.abort_cost, 1))
        key = (B, ctx.chain_k)
        policy = self._cache.get(key)
        if policy is None:
            get_registry().counter("policy_builds").inc()
            policy = optimal_requestor_wins(float(B), ctx.chain_k, self.mu_cycles)
            policy = _LIVE_DISTS.setdefault((B, ctx.chain_k, policy.name), policy)
            self._cache[key] = policy
        return int(policy.sample(rng))


class RequestorAbortsDelay(CyclePolicy):
    """Extension: requestor-aborts resolution in the HTM (Section 4.2).

    The receiver stalls the requestor for a grace period drawn from the
    optimal requestor-aborts density (Theorems 1/3); when it expires,
    the *requestor* is NACK-aborted and the receiver runs to commit.
    Transactional requestors only — non-speculative requests (CAS,
    fallback stores) cannot be aborted and win by waiting.

    The ``resolution`` attribute is what the HTM controller dispatches
    on; policies without it default to requestor-wins.
    """

    name = "DELAY_RA"
    resolution = "requestor_aborts"

    def __init__(self, mu_cycles: float | None = None) -> None:
        if mu_cycles is not None and mu_cycles <= 0:
            raise InvalidParameterError(f"mu_cycles must be > 0, got {mu_cycles}")
        self.mu_cycles = mu_cycles
        self._cache: dict[tuple[int, int], object] = {}

    def decide(self, ctx: ConflictContext, rng: np.random.Generator) -> int:
        from repro.core.requestor_aborts import optimal_requestor_aborts

        B = _bucket(max(ctx.abort_cost, 1))
        key = (B, ctx.chain_k)
        policy = self._cache.get(key)
        if policy is None:
            get_registry().counter("policy_builds").inc()
            policy = optimal_requestor_aborts(
                float(B), ctx.chain_k, self.mu_cycles
            )
            self._cache[key] = policy
        return max(1, int(policy.sample(rng)))


class HybridDelay(_RWTablePolicy):
    """Extension: the paper's "Implications" hybrid, live in the HTM.

    Per conflict, picks the resolution strategy with the better optimal
    competitive ratio at the observed chain size — requestor-aborts for
    ``k = 2``, requestor-wins for ``k >= 3`` — and draws the grace
    period from that strategy's optimal density.
    """

    name = "DELAY_HYBRID"

    def __init__(self, mu_cycles: float | None = None) -> None:
        super().__init__()
        self._ra = RequestorAbortsDelay(mu_cycles)  # rejects mu <= 0
        self.mu_cycles = mu_cycles

    @staticmethod
    def resolution(ctx: ConflictContext) -> str:
        return preferred_kind(ctx.chain_k).value

    def decide(self, ctx: ConflictContext, rng: np.random.Generator) -> int:
        if self.resolution(ctx) == "requestor_aborts":
            get_registry().counter("hybrid_ra_choices").inc()
            return self._ra.decide(ctx, rng)
        get_registry().counter("hybrid_rw_choices").inc()
        B = _bucket(max(ctx.abort_cost, 1))
        key = (B, ctx.chain_k)
        policy = self._cache.get(key)
        if policy is None:
            policy = self._pick(key, B, ctx.chain_k, self.mu_cycles)
        return int(policy.sample(rng))


class RegimeAdaptiveDelay(_RWTablePolicy):
    """Online-estimated adaptive policy: live regime dispatch.

    Where :class:`RRWMeanDelay` trusts an operator-profiled ``µ``, this
    policy estimates everything from the stream it serves.  Every
    conflict feeds the receiver's ``(B, k)`` into an
    :class:`~repro.core.estimators.OnlineEstimator`; committed
    transactions report their durations through
    :meth:`observe_commit`.  Every ``refresh_every`` decisions the
    policy re-reads the windowed estimates and re-dispatches between
    the paper's regimes:

    ``bootstrap``
        fewer than ``min_samples`` conflicts in the window — too thin
        to trust a mean, so play Theorem 4's deterministic ``B/(k-1)``
        (the safest unconditional 2+1/(k-1) guarantee).
    ``mean``
        a µ estimate exists and ``µ̂/B̂`` is inside the Theorem 5/6
        mean regime (:func:`~repro.core.ratios.rw_mean_regime_threshold`
        at the estimated k̂) — draw from the mean-constrained optimal
        density.
    ``rand``
        otherwise — the unconstrained randomized optimum (uniform at
        k = 2, Theorem 6's polynomial density at k >= 3).

    Because the window decays old samples, a workload shift (longer
    transactions, deeper chains) walks the estimates to the new regime
    within one window; each re-dispatch increments the
    ``regime_switches`` counter and is what the serve layer traces as
    ``regime_switch`` events.
    """

    name = "DELAY_REGIME"

    #: dispatchable regimes, in cold-start order
    REGIMES = ("bootstrap", "rand", "mean")

    def __init__(
        self,
        estimator: OnlineEstimator | None = None,
        *,
        window: int = 1024,
        min_samples: int = 32,
        refresh_every: int = 64,
    ) -> None:
        if min_samples < 1:
            raise InvalidParameterError(
                f"min_samples must be >= 1, got {min_samples}"
            )
        if refresh_every < 1:
            raise InvalidParameterError(
                f"refresh_every must be >= 1, got {refresh_every}"
            )
        super().__init__()
        self.estimator = (
            estimator if estimator is not None else OnlineEstimator(window)
        )
        self.min_samples = min_samples
        self.refresh_every = refresh_every
        self.regime = "bootstrap"
        self.regime_switches = 0
        self._decisions = 0
        self._snapshot = self.estimator.snapshot()
        #: ``_bucket`` memo per argument: abort costs and rounded µ̂
        self._buckets: dict[int, int] = {}

    # -- estimator feeds ---------------------------------------------------
    def observe_commit(self, duration: float) -> None:
        """Report one committed transaction's duration (the µ feed)."""
        self.estimator.observe_commit(duration)

    def classify(self, snap: EstimateSnapshot) -> str:
        """Which regime the estimates currently select."""
        if snap.n_conflicts < self.min_samples:
            return "bootstrap"
        if snap.n_commits == 0 or math.isnan(snap.mu_hat):
            return "rand"
        k = snap.k_round()
        b = snap.b_hat
        if b <= 0:
            return "rand"
        if snap.mu_hat / b < rw_mean_regime_threshold(k):
            return "mean"
        return "rand"

    def _refresh(self) -> None:
        self._snapshot = self.estimator.snapshot()
        new = self.classify(self._snapshot)
        if new != self.regime:
            get_registry().counter("regime_switches").inc()
            self.regime_switches += 1
            self.regime = new

    def decide(self, ctx: ConflictContext, rng: np.random.Generator) -> int:
        cost = ctx.abort_cost
        k = ctx.chain_k
        self.estimator.observe_conflict(cost, k)
        self._decisions += 1
        if self._decisions % self.refresh_every == 1 or self.refresh_every == 1:
            self._refresh()
        if self.regime == "bootstrap":
            return int(cost // (k - 1))
        buckets = self._buckets
        B = buckets.get(cost)
        if B is None:
            B = buckets[cost] = _bucket(cost)
        if self.regime == "mean":
            # quantize µ̂ for the regime test; a drift that keeps the
            # family keeps its distribution
            mu = max(int(round(self._snapshot.mu_hat)), 1)
            mu_key = buckets.get(mu)
            if mu_key is None:
                mu_key = buckets[mu] = _bucket(mu)
        else:
            mu_key = -1
        key = (B, k, mu_key)
        policy = self._cache.get(key)
        if policy is None:
            policy = self._pick(key, B, k, None if mu_key < 0 else float(mu_key))
        return int(policy.sample(rng))


def commit_feed(policy: RegimeAdaptiveDelay):
    """A machine commit observer that reports each committed duration
    to ``policy`` as a remaining time (:data:`REMAINING_FRACTION`)."""

    def observe(duration: float) -> None:
        policy.observe_commit(REMAINING_FRACTION * duration)

    return observe


class GreedyCM(CyclePolicy):
    """Baseline: the Greedy contention manager (global knowledge).

    The paper positions its policies against software-TM contention
    managers that "have global knowledge about the set of running
    transactions"; Greedy (Guerraoui-Herlihy-Pochon) is the canonical
    one — on conflict, the *older* transaction wins immediately.  This
    implementation uses the requestor's true age (information a local
    HTM policy cannot have) to decide which side aborts, with no grace
    period: receiver older ⇒ requestor NACKed, else receiver aborts.

    A non-transactional requestor has no timestamp and always wins (the
    receiver aborts), matching Greedy's treatment of irrevocable
    operations.
    """

    name = "GREEDY_CM"

    def decide(self, ctx: ConflictContext, rng: np.random.Generator) -> int:
        return 0  # greedy never waits; resolution picks the victim

    @staticmethod
    def resolution(ctx: ConflictContext) -> str:
        if ctx.requestor_age is None:
            return "requestor_wins"  # irrevocable requestor
        # older transaction (larger age) wins
        if ctx.tx_age >= ctx.requestor_age:
            return "requestor_aborts"
        return "requestor_wins"


def policy_from_name(
    name: str,
    params: MachineParams,
    *,
    tuned_cycles: int | None = None,
    mu_cycles: float | None = None,
) -> CyclePolicy:
    """Build a policy by its Figure 3 series name."""
    key = name.upper()
    if key == "NO_DELAY":
        return NoDelay()
    if key == "DELAY_TUNED":
        if tuned_cycles is None:
            raise InvalidParameterError("DELAY_TUNED needs tuned_cycles")
        return TunedDelay(tuned_cycles)
    if key == "DELAY_DET":
        return DetDelay()
    if key == "DELAY_RAND":
        return RandDelay()
    if key == "DELAY_RRW_MU":
        if mu_cycles is None:
            raise InvalidParameterError("DELAY_RRW_MU needs mu_cycles")
        return RRWMeanDelay(mu_cycles)
    if key == "DELAY_RA":
        return RequestorAbortsDelay(mu_cycles)
    if key == "DELAY_HYBRID":
        return HybridDelay(mu_cycles)
    if key == "GREEDY_CM":
        return GreedyCM()
    if key == "DELAY_REGIME":
        return RegimeAdaptiveDelay()
    raise InvalidParameterError(
        f"unknown conflict policy {name!r}; known: NO_DELAY, DELAY_TUNED, "
        f"DELAY_DET, DELAY_RAND, DELAY_RRW_MU, DELAY_RA, DELAY_HYBRID, "
        f"GREEDY_CM, DELAY_REGIME"
    )
