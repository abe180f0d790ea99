"""Optimal policies for the requestor-wins conflict problem (Section 5).

In a requestor-wins system the *receiver* transaction is the one that
will be aborted; the policy decides how long the receiver may keep
delaying the requestor's coherence message before giving up.  The cost
model is ``(k-1)D`` on commit and ``kx + B`` on abort (Section 4.1) —
a *new* ski-rental variant whose optimal strategies differ from the
classic ones:

* Theorem 4 — optimal deterministic: delay exactly ``B/(k-1)``;
  competitive ratio ``2 + 1/(k-1)``.
* Theorem 5 — optimal randomized, ``k = 2``: **uniform on [0, B)**;
  ratio 2.  With known mean µ (µ/B below threshold ``2(ln4 - 1)``):
  ``p(x) = ln((B+x)/B) / (B(ln4 - 1))``; ratio ``1 + µ/(2B(ln4-1))``.
* Theorem 6 — optimal randomized, ``k >= 3``: polynomial densities
  proportional to ``(B+x)^{k-2}`` (unconstrained) or
  ``(B+x)^{k-2} - B^{k-2}`` (mean-constrained).

Numerical-stability note: with ``N = k^{k-1}`` and ``M = (k-1)^{k-1}``
the Theorem 6 coefficients overflow for large k, so we express all
formulas through the bounded ratio ``R = N/M = (k/(k-1))^{k-1}``
(monotonically increasing to ``e``); e.g. the unconstrained competitive
ratio ``N/(N-M)`` becomes ``R/(R-1)``.

Correction to the published Theorem 6 (verified in
``tests/test_policies_rw.py`` and DESIGN.md): the printed constrained
PDF is negative at ``x = 0`` and implies a Lagrange corner with
``lambda_1 < 1``, which is impossible for a competitive ratio.
Re-deriving the positivity constraint ``p(0) >= 0`` from the paper's own
differential-equation solution gives the corner
``lambda_2* = (k-2)M / (2B(N-2M))`` (the paper's value is 4x too large),
whence

    p(x)  = (k-1) / (B(R-2)) * (((B+x)/B)^{k-2} - 1)
    ratio = 1 + mu*(k-2) / (2B(R-2))
    regime: mu/B < 2(R-2) / ((k-2)(R-1))

This corrected form (a) vanishes at 0 like every other constrained
optimum in the paper, (b) integrates to 1, (c) satisfies the
equalization identity ``Cost(p, y) = (k-1) y (1 + lambda_2 y)`` on the
whole support, and (d) converges to the Theorem 5 log-form as
``k -> 2``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import ratios
from repro.core._continuous import ContinuousDelayPolicy
from repro.core.model import ConflictKind, ConflictModel
from repro.core.policy import DelayPolicy, DeterministicDelayPolicy
from repro.core.ratios import LN4_MINUS_1, _check_bk, rw_chain_ratio_R
from repro.errors import InvalidParameterError, RegimeError

__all__ = [
    "DeterministicRW",
    "UniformRW",
    "MeanConstrainedRW",
    "PolynomialRW",
    "optimal_requestor_wins",
]


class DeterministicRW(DeterministicDelayPolicy):
    """Theorem 4: the optimal deterministic requestor-wins policy.

    Delays the receiver's abort by exactly ``B / (k-1)``, achieving
    competitive ratio ``2 + 1/(k-1)`` (3 for ``k = 2``).
    """

    def __init__(self, B: float, k: int = 2) -> None:
        B, k = _check_bk(B, k)
        super().__init__(B / (k - 1))
        self.B = B
        self.k = k
        self.name = "DET"

    @property
    def competitive_ratio(self) -> float:
        """Closed-form ratio ``2 + 1/(k-1)`` from Theorem 4."""
        return ratios.det_rw_ratio(self.k)

    def model(self) -> ConflictModel:
        """The conflict model this policy was built for."""
        return ConflictModel(ConflictKind.REQUESTOR_WINS, self.B, self.k)


class UniformRW(ContinuousDelayPolicy):
    """Theorem 5 (unconstrained): uniform delay on ``[0, B/(k-1))``.

    The paper's headline result — the optimal randomized requestor-wins
    strategy is *uniform*, in contrast to the exponential density of
    classic ski rental — with competitive ratio exactly 2 for ``k = 2``
    (and at most 2 for ``k > 2``; Theorem 6 gives the tighter optimum
    for ``k >= 3``).
    """

    def __init__(self, B: float, k: int = 2) -> None:
        self.B, self.k = _check_bk(B, k)
        self._lo = 0.0
        self._hi = self.B / (self.k - 1)
        self.name = "RRW"

    def pdf_vec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        density = (self.k - 1) / self.B
        return np.where(self._in_support(x), density, 0.0)

    def cdf_vec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.clip(x * (self.k - 1) / self.B, 0.0, 1.0)

    def _quantile(self, q: np.ndarray | float) -> np.ndarray | float:
        return q * self._hi

    def expected_delay(self) -> float:
        return self._hi / 2.0

    @property
    def competitive_ratio(self) -> float:
        """The guaranteed ratio 2 (Theorem 5; see
        :func:`~repro.core.ratios.rand_rw_uniform_ratio`)."""
        return ratios.rand_rw_uniform_ratio(self.k)

    def model(self) -> ConflictModel:
        return ConflictModel(ConflictKind.REQUESTOR_WINS, self.B, self.k)


class MeanConstrainedRW(ContinuousDelayPolicy):
    """Theorem 5 (constrained, ``k = 2``): the log-density policy.

    When the mean µ of the adversary's remaining-time distribution is
    known and ``mu/B < 2(ln4 - 1) ~ 0.7726``, the optimal density is

        p(x) = ln((B + x)/B) / (B (ln4 - 1)),   0 <= x <= B

    with competitive ratio ``1 + mu / (2B(ln4 - 1))``.

    (The paper's theorem statement prints the density as
    ``ln((B+x)/x)``, which does not integrate to 1; the proof's own
    conclusion, and the normalization check
    ``integral ln(1+x/B) dx = B(ln4 - 1)``, give the form used here.)
    """

    def __init__(self, B: float, mu: float, *, strict_regime: bool = True) -> None:
        B, _ = _check_bk(B, 2)
        if not (isinstance(mu, (int, float)) and math.isfinite(mu) and mu > 0):
            raise InvalidParameterError(f"mu must be finite and positive, got {mu!r}")
        if strict_regime and not self.regime_holds(B, mu):
            raise RegimeError(
                f"mean-constrained RW policy requires mu/B < 2(ln4-1) "
                f"~= {ratios.rw_mean_regime_threshold(2):.4f}; got mu/B = "
                f"{mu / B:.4f} "
                f"(use optimal_requestor_wins() to fall back automatically)"
            )
        self.B = B
        self.k = 2
        self.mu = float(mu)
        self._lo = 0.0
        self._hi = B
        self.name = "RRW(mu)"

    @staticmethod
    def regime_holds(B: float, mu: float) -> bool:
        """Whether the constrained policy beats the unconstrained one."""
        return mu / B < ratios.rw_mean_regime_threshold(2)

    def pdf_vec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = self._in_support(x)
        safe = np.where(inside, x, 0.0)
        vals = np.log1p(safe / self.B) / (self.B * LN4_MINUS_1)
        return np.where(inside, vals, 0.0)

    def _cdf_inside(self, x: np.ndarray) -> np.ndarray:
        # integral of ln(1 + t/B) dt = (B + x) ln((B+x)/B) - x
        out = x / self.B
        np.log1p(out, out=out)
        out *= self.B + x
        out -= x
        out /= self.B * LN4_MINUS_1
        return out

    @property
    def competitive_ratio(self) -> float:
        """``1 + mu/(2B(ln4 - 1))`` from Theorem 5."""
        return ratios.constrained_rw_ratio(self.B, self.mu, 2)

    @property
    def lagrange_lambda2(self) -> float:
        """Slope of the equalized ratio: ``Cost(p, y)/y = 1 + lambda2*y``."""
        return 1.0 / (2.0 * self.B * LN4_MINUS_1)

    def model(self) -> ConflictModel:
        return ConflictModel(ConflictKind.REQUESTOR_WINS, self.B, 2)


class PolynomialRW(ContinuousDelayPolicy):
    """Theorem 6: optimal randomized requestor-wins policies, ``k >= 3``.

    Unconstrained (``mu=None``)::

        p(x)  = (k-1)/(B(R-1)) * ((B+x)/B)^{k-2},    0 <= x <= B/(k-1)
        ratio = R/(R-1)                              (-> e/(e-1) as k grows)

    Mean-constrained (corrected; see module docstring)::

        p(x)  = (k-1)/(B(R-2)) * (((B+x)/B)^{k-2} - 1)
        ratio = 1 + mu (k-2) / (2B(R-2))
        valid when mu/B < 2(R-2)/((k-2)(R-1))

    where ``R = (k/(k-1))^{k-1}``.
    """

    def __init__(
        self,
        B: float,
        k: int,
        mu: float | None = None,
        *,
        strict_regime: bool = True,
    ) -> None:
        B, k = _check_bk(B, k)
        if k < 3:
            raise InvalidParameterError(
                "PolynomialRW requires k >= 3 (use UniformRW / "
                "MeanConstrainedRW for k = 2)"
            )
        if mu is not None:
            if not (isinstance(mu, (int, float)) and math.isfinite(mu) and mu > 0):
                raise InvalidParameterError(
                    f"mu must be finite and positive, got {mu!r}"
                )
            if strict_regime and not self.regime_holds(B, k, mu):
                raise RegimeError(
                    f"mean-constrained PolynomialRW requires mu/B < "
                    f"{self.regime_threshold(k):.4f} for k={k}; got "
                    f"{mu / B:.4f}"
                )
        self.B = B
        self.k = k
        self.mu = None if mu is None else float(mu)
        self.R = rw_chain_ratio_R(k)
        self._lo = 0.0
        self._hi = B / (k - 1)
        self.name = "RRW" if mu is None else "RRW(mu)"

    # -- regime ----------------------------------------------------------
    @staticmethod
    def regime_threshold(k: int) -> float:
        """Upper bound on ``mu/B`` for the constrained form to win."""
        return ratios.rw_mean_regime_threshold(k)

    @classmethod
    def regime_holds(cls, B: float, k: int, mu: float) -> bool:
        return mu / B < cls.regime_threshold(k)

    # -- distribution ------------------------------------------------------
    @property
    def constrained(self) -> bool:
        return self.mu is not None

    def pdf_vec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = self._in_support(x)
        safe = np.where(inside, x, 0.0)
        base = np.power(1.0 + safe / self.B, self.k - 2)
        if self.constrained:
            vals = (self.k - 1) / (self.B * (self.R - 2.0)) * (base - 1.0)
        else:
            vals = (self.k - 1) / (self.B * (self.R - 1.0)) * base
        return np.where(inside, vals, 0.0)

    def _cdf_inside(self, x: np.ndarray) -> np.ndarray:
        out = x / self.B
        out += 1.0
        np.power(out, self.k - 1, out=out)
        out -= 1.0
        if self.constrained:
            linear = (self.k - 1) * x
            linear /= self.B
            out -= linear
            out /= self.R - 2.0
        else:
            out /= self.R - 1.0
        return out

    def _quantile(self, q: np.ndarray | float) -> np.ndarray | float:
        if self.constrained:
            return super()._quantile(q)  # numeric inversion
        # closed-form inverse of ((1+x/B)^{k-1} - 1)/(R-1); np.power,
        # not ``**``: on a float they round differently
        return self.B * (
            np.power(1.0 + q * (self.R - 1.0), 1.0 / (self.k - 1)) - 1.0
        )

    # -- analysis ----------------------------------------------------------
    @property
    def competitive_ratio(self) -> float:
        if self.constrained:
            assert self.mu is not None
            return ratios.constrained_rw_ratio(self.B, self.mu, self.k)
        return ratios.rand_rw_optimal_ratio(self.k)

    @property
    def lagrange_lambda2(self) -> float:
        """Slope of the equalized ratio identity (0 when unconstrained)."""
        if not self.constrained:
            return 0.0
        return (self.k - 2) / (2.0 * self.B * (self.R - 2.0))

    def model(self) -> ConflictModel:
        return ConflictModel(ConflictKind.REQUESTOR_WINS, self.B, self.k)


def optimal_requestor_wins(
    B: float,
    k: int = 2,
    mu: float | None = None,
    *,
    deterministic: bool = False,
) -> DelayPolicy:
    """Factory for the paper's optimal requestor-wins policy.

    Picks the right theorem for the parameters:

    * ``deterministic=True`` -> Theorem 4 fixed delay ``B/(k-1)``.
    * ``k = 2``: uniform (Thm 5); with ``mu`` inside the regime, the
      log-density constrained policy (Thm 5).
    * ``k >= 3``: polynomial (Thm 6), constrained when ``mu`` is inside
      the regime.

    Outside the mean regime the factory silently falls back to the
    unconstrained optimum, mirroring the theorem statements
    ("otherwise, the unconstrained strategy is optimal").
    """
    B, k = _check_bk(B, k)
    if deterministic:
        return DeterministicRW(B, k)
    if k == 2:
        if mu is not None and MeanConstrainedRW.regime_holds(B, mu):
            return MeanConstrainedRW(B, mu)
        return UniformRW(B, 2)
    if mu is not None and PolynomialRW.regime_holds(B, k, mu):
        return PolynomialRW(B, k, mu)
    return PolynomialRW(B, k)
