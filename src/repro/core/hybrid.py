"""Hybrid requestor-wins / requestor-aborts resolution (Section 1,
"Implications").

The paper observes a crossover: for two-transaction conflicts the
requestor-aborts optimum (``e/(e-1)``) beats the requestor-wins optimum
(2), but for chains ``k >= 3`` requestor-wins (ratio ``R/(R-1)``,
decreasing toward ``e/(e-1)``) beats requestor-aborts (ratio
``E/(E-1)``, *increasing* with k).  "This suggests that a hybrid
strategy, which can alternate between the two, would perform best."

:func:`preferred_kind` is that choice, the one copy of it: the
resolution *strategy* (which side aborts) whose closed-form optimal
ratio is smaller at the observed chain size.  :class:`HybridResolver`
makes it per conflict, then delegates delay selection to the
corresponding optimal policy; the HTM's ``HybridDelay`` and the
``ext_chains`` experiment make the same call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import ConflictKind, ConflictModel
from repro.core.policy import DelayPolicy
from repro.core.ratios import _check_bk, rand_ra_ratio, rand_rw_optimal_ratio
from repro.core.requestor_aborts import optimal_requestor_aborts
from repro.core.requestor_wins import optimal_requestor_wins
from repro.rngutil import ensure_rng

__all__ = ["HybridResolver", "HybridDecision", "preferred_kind"]


def preferred_kind(k: int) -> ConflictKind:
    """The strategy with the smaller optimal unconstrained ratio at
    chain size ``k`` (RA at k = 2, RW at k >= 3); a tie goes to RA."""
    if rand_ra_ratio(k) <= rand_rw_optimal_ratio(k):
        return ConflictKind.REQUESTOR_ABORTS
    return ConflictKind.REQUESTOR_WINS


@dataclass(frozen=True)
class HybridDecision:
    """One hybrid resolution: which side aborts, with what grace period."""

    kind: ConflictKind
    delay: float
    policy: DelayPolicy
    expected_ratio: float


class HybridResolver:
    """Choose RW vs RA per conflict, then the optimal delay for it.

    Parameters
    ----------
    B:
        Abort cost.
    mu:
        Optional known mean of the remaining-time distribution; passed to
        the constrained policy factories when inside their regimes.
    allow_switching:
        When False, behaves as a fixed-kind resolver (for ablations that
        pin the strategy while keeping the same code path).
    pinned_kind:
        The kind used when ``allow_switching`` is False.
    """

    name = "HYBRID"

    def __init__(
        self,
        B: float,
        mu: float | None = None,
        *,
        allow_switching: bool = True,
        pinned_kind: ConflictKind = ConflictKind.REQUESTOR_ABORTS,
    ) -> None:
        _check_bk(B, 2)
        self.B = float(B)
        self.mu = mu
        self.allow_switching = allow_switching
        self.pinned_kind = pinned_kind
        self._policy_cache: dict[tuple[ConflictKind, int], DelayPolicy] = {}

    def preferred_kind(self, k: int) -> ConflictKind:
        """:func:`preferred_kind` at chain size ``k``, or the pinned
        kind when switching is off."""
        _check_bk(self.B, k)
        if not self.allow_switching:
            return self.pinned_kind
        return preferred_kind(k)

    def policy_for(self, k: int) -> DelayPolicy:
        """The optimal policy for the preferred kind at chain size k."""
        kind = self.preferred_kind(k)
        key = (kind, k)
        cached = self._policy_cache.get(key)
        if cached is None:
            if kind is ConflictKind.REQUESTOR_ABORTS:
                cached = optimal_requestor_aborts(self.B, k, self.mu)
            else:
                cached = optimal_requestor_wins(self.B, k, self.mu)
            self._policy_cache[key] = cached
        return cached

    def resolve(
        self, k: int, rng: np.random.Generator | int | None = None
    ) -> HybridDecision:
        """Make one hybrid decision for a conflict of chain size ``k``."""
        gen = ensure_rng(rng)
        kind = self.preferred_kind(k)
        policy = self.policy_for(k)
        ratio = getattr(policy, "competitive_ratio", float("nan"))
        return HybridDecision(kind, policy.sample(gen), policy, ratio)

    def model_for(self, k: int) -> ConflictModel:
        """The conflict model the chosen strategy is evaluated under."""
        return ConflictModel(self.preferred_kind(k), self.B, k)
