"""Optimal policies for the requestor-aborts conflict problem.

In a requestor-aborts system the receiver T1 keeps running and the
policy decides how long to stall the ``k - 1`` requestors before
aborting *them*.  The cost model is ``(k-1)D`` on commit and
``(k-1)(x + B)`` on abort (Section 4.2), which for ``k = 2`` **is** the
classic ski-rental problem:

* Theorem 1 — the discrete randomized ski-rental strategy of Karlin et
  al., competitive ratio ``e/(e-1)``; continuous analogue
  ``p(x) = e^{x/B} / (B(e-1))`` on ``[0, B]``.
* Theorem 2 (Khanafer et al.) — mean-constrained,
  ``p(x) = (e^{x/B} - 1)/(B(e-2))``; ratio ``1 + mu/(2B(e-2))`` when
  ``mu/B < 2(e-2)/(e-1)``.  (The printed PDF
  ``1/(B(e-2)) e^{x/B} - 1`` does not normalize; the form here does and
  is the k = 2 case of Theorem 3.)
* Theorem 3 — chains of size ``k > 2``; with ``E = e^{1/(k-1)}``:

      unconstrained: p(x) = e^{x/B} / (B(E-1)),    ratio E/(E-1)
      constrained:   p(x) = (k-1)(e^{x/B} - 1) / (B Z),  Z = (k-1)(E-1) - 1
                     ratio 1 + mu (k-1) / (2 B Z)
                     valid when mu/B < 2 Z / ((k-1)(E-1))

  on support ``[0, B/(k-1)]``.  (We state the regime as the paper's
  proof derives it — ``C2 < C1`` — rather than the garbled inequality in
  the theorem statement; the two coincide after simplification.)

All chain formulas use the offline baseline ``OPT(D) = min((k-1)D, B)``
(the convention of the paper's Theorem 3 Lagrangian; see DESIGN.md).
The optimal deterministic strategy under this baseline waits
``B/(k-1)`` and is ``k``-competitive (2-competitive at ``k = 2``,
matching classic ski rental).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import ratios
from repro.core._continuous import ContinuousDelayPolicy
from repro.core.model import ConflictKind, ConflictModel
from repro.core.policy import DelayPolicy, DeterministicDelayPolicy
from repro.core.ratios import _check_bk, ra_chain_E
from repro.core.ski_rental import discrete_competitive_ratio, karlin_pmf
from repro.errors import InvalidParameterError, RegimeError
from repro.rngutil import ensure_rng

__all__ = [
    "DeterministicRA",
    "ExponentialRA",
    "MeanConstrainedRA",
    "ChainRA",
    "DiscreteSkiRentalRA",
    "optimal_requestor_aborts",
]


class DeterministicRA(DeterministicDelayPolicy):
    """Optimal deterministic requestor-aborts policy: wait ``B/(k-1)``.

    For ``k = 2`` this is the classic buy-on-day-B ski-rental rule with
    ratio 2; for chains it is ``k``-competitive against
    ``OPT = min((k-1)D, B)``.
    """

    def __init__(self, B: float, k: int = 2) -> None:
        B, k = _check_bk(B, k)
        super().__init__(B / (k - 1))
        self.B = B
        self.k = k
        self.name = "DET_RA"

    @property
    def competitive_ratio(self) -> float:
        return ratios.det_ra_ratio(self.k)

    def model(self) -> ConflictModel:
        return ConflictModel(ConflictKind.REQUESTOR_ABORTS, self.B, self.k)


class ExponentialRA(ContinuousDelayPolicy):
    """Theorems 1/3 (unconstrained): exponential density ski rental.

    ``p(x) = e^{x/B} / (B(E-1))`` on ``[0, B/(k-1)]`` with
    ``E = e^{1/(k-1)}``; competitive ratio ``E/(E-1)``
    (= ``e/(e-1) ~ 1.582`` at ``k = 2``).
    """

    def __init__(self, B: float, k: int = 2) -> None:
        self.B, self.k = _check_bk(B, k)
        self.E = ra_chain_E(self.k)
        self._lo = 0.0
        self._hi = self.B / (self.k - 1)
        self.name = "RRA"

    def pdf_vec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = self._in_support(x)
        safe = np.where(inside, x, 0.0)
        vals = np.exp(safe / self.B) / (self.B * (self.E - 1.0))
        return np.where(inside, vals, 0.0)

    def _cdf_inside(self, x: np.ndarray) -> np.ndarray:
        out = x / self.B
        np.expm1(out, out=out)
        out /= self.E - 1.0
        return out

    def _quantile(self, q: np.ndarray | float) -> np.ndarray | float:
        return self.B * np.log1p(q * (self.E - 1.0))

    @property
    def competitive_ratio(self) -> float:
        return ratios.rand_ra_ratio(self.k)

    def model(self) -> ConflictModel:
        return ConflictModel(ConflictKind.REQUESTOR_ABORTS, self.B, self.k)


class ChainRA(ContinuousDelayPolicy):
    """Theorem 3 (constrained): mean-aware requestor-aborts chains.

    ``p(x) = (k-1)(e^{x/B} - 1) / (B Z)`` on ``[0, B/(k-1)]`` with
    ``Z = (k-1)(E-1) - 1``; competitive ratio ``1 + mu(k-1)/(2BZ)``,
    valid in the regime ``mu/B < 2Z/((k-1)(E-1))``.

    ``k = 2`` specializes to Theorem 2 (see :class:`MeanConstrainedRA`).
    """

    def __init__(
        self, B: float, k: int, mu: float, *, strict_regime: bool = True
    ) -> None:
        B, k = _check_bk(B, k)
        if not (isinstance(mu, (int, float)) and math.isfinite(mu) and mu > 0):
            raise InvalidParameterError(f"mu must be finite and positive, got {mu!r}")
        if strict_regime and not self.regime_holds(B, k, mu):
            raise RegimeError(
                f"mean-constrained RA policy requires mu/B < "
                f"{self.regime_threshold(k):.4f} for k={k}; got {mu / B:.4f}"
            )
        self.B = B
        self.k = k
        self.mu = float(mu)
        self.E = ra_chain_E(k)
        self.Z = (k - 1) * (self.E - 1.0) - 1.0
        self._lo = 0.0
        self._hi = B / (k - 1)
        self.name = "RRA(mu)"

    # -- regime ----------------------------------------------------------
    @staticmethod
    def regime_threshold(k: int) -> float:
        return ratios.ra_mean_regime_threshold(k)

    @classmethod
    def regime_holds(cls, B: float, k: int, mu: float) -> bool:
        return mu / B < cls.regime_threshold(k)

    # -- distribution ------------------------------------------------------
    def pdf_vec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = self._in_support(x)
        safe = np.where(inside, x, 0.0)
        vals = (self.k - 1) * np.expm1(safe / self.B) / (self.B * self.Z)
        return np.where(inside, vals, 0.0)

    def _cdf_inside(self, x: np.ndarray) -> np.ndarray:
        scaled = x / self.B
        out = np.expm1(scaled)
        out -= scaled
        out *= self.k - 1
        out /= self.Z
        return out

    # -- analysis ----------------------------------------------------------
    @property
    def competitive_ratio(self) -> float:
        return ratios.constrained_ra_ratio(self.B, self.mu, self.k)

    @property
    def lagrange_lambda2(self) -> float:
        return (self.k - 1) / (2.0 * self.B * self.Z)

    def model(self) -> ConflictModel:
        return ConflictModel(ConflictKind.REQUESTOR_ABORTS, self.B, self.k)


class MeanConstrainedRA(ChainRA):
    """Theorem 2 (Khanafer et al.): the ``k = 2`` mean-constrained policy.

    ``p(x) = (e^{x/B} - 1)/(B(e-2))`` on ``[0, B]``; ratio
    ``1 + mu/(2B(e-2))``, valid when ``mu/B < 2(e-2)/(e-1)``.
    """

    def __init__(self, B: float, mu: float, *, strict_regime: bool = True) -> None:
        super().__init__(B, 2, mu, strict_regime=strict_regime)


class DiscreteSkiRentalRA(DelayPolicy):
    """Theorem 1: the discrete randomized ski-rental strategy.

    For integer ``B``, buy skis on day ``i`` (i.e. stall the requestor
    for ``i - 1`` whole days, aborting it at the start of day ``i``)
    with probability

        p(i) = ((B-1)/B)^{B-i} / (B (1 - (1 - 1/B)^B)),   1 <= i <= B.

    Expected cost is ``(e/(e-1)) min(D, B)`` asymptotically in ``B``
    (the exact discrete ratio ``1/(1-(1-1/B)^B)`` increases toward
    ``e/(e-1)`` from below as ``B`` grows — an integer-day adversary is
    slightly weaker than the continuous one).
    """

    def __init__(self, B: int) -> None:
        # rejects a B that is not an int >= 1, or is a bool
        self._pmf = karlin_pmf(B)  # index 0 is day 1
        self.B = B
        self.k = 2
        self._cmf = np.cumsum(self._pmf)
        self.name = "SKI_DISCRETE"

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, float(self.B - 1))

    def pmf(self, day: int) -> float:
        """Probability of buying on day ``day`` (1-indexed)."""
        if not 1 <= day <= self.B:
            return 0.0
        return float(self._pmf[day - 1])

    def cdf(self, x: float) -> float:
        # P(delay <= x): delay for day i is i - 1.
        if x < 0.0:
            return 0.0
        day = min(int(math.floor(x)) + 1, self.B)
        return float(self._cmf[day - 1])

    def sample(self, rng: np.random.Generator | int | None = None) -> float:
        gen = ensure_rng(rng)
        day = int(np.searchsorted(self._cmf, gen.random(), side="right")) + 1
        return float(min(day, self.B) - 1)

    def sample_many(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        gen = ensure_rng(rng)
        days = np.searchsorted(self._cmf, gen.random(n), side="right") + 1
        return np.minimum(days, self.B).astype(float) - 1.0

    def expected_delay(self) -> float:
        return float(np.dot(self._pmf, np.arange(self.B)))

    @property
    def competitive_ratio(self) -> float:
        """Exact discrete ratio ``1 / (1 - (1 - 1/B)^B)``."""
        return discrete_competitive_ratio(self.B)

    def model(self) -> ConflictModel:
        return ConflictModel(ConflictKind.REQUESTOR_ABORTS, float(self.B), 2)


def optimal_requestor_aborts(
    B: float,
    k: int = 2,
    mu: float | None = None,
    *,
    deterministic: bool = False,
    discrete: bool = False,
) -> DelayPolicy:
    """Factory for the paper's optimal requestor-aborts policy.

    * ``deterministic=True`` -> wait ``B/(k-1)`` (classic rule at k=2).
    * ``discrete=True`` (k=2, integer B) -> Theorem 1's day-indexed
      strategy.
    * otherwise the continuous exponential density (Thms 1/3); when
      ``mu`` is supplied and inside the regime, the mean-constrained
      density (Thms 2/3).
    """
    B, k = _check_bk(B, k)
    if deterministic:
        return DeterministicRA(B, k)
    if discrete:
        if k != 2:
            raise InvalidParameterError("discrete ski rental is defined for k = 2")
        if not float(B).is_integer():
            raise InvalidParameterError(
                f"discrete ski rental needs an integer B, got {B}"
            )
        return DiscreteSkiRentalRA(int(B))
    if mu is not None and ChainRA.regime_holds(B, k, mu):
        return ChainRA(B, k, mu)
    return ExponentialRA(B, k)
