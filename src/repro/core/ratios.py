"""Closed-form competitive ratios, regime thresholds, and abort
probabilities for every theorem in the paper.

This is the one copy of each closed form: the policy classes'
``competitive_ratio``, ``regime_threshold`` and ``regime_holds`` return
these values, and the ``tab_ratios`` / ``tab_abort_prob`` tables check
them against the numeric verification machinery
(:mod:`repro.core.verify`) run on the policies themselves.

Every function rejects impossible inputs with
:class:`~repro.errors.InvalidParameterError`: ``B`` must be finite and
positive, ``k`` an integer ``>= 2`` and ``mu`` finite and ``>= 0``.
"""

from __future__ import annotations

import math

from repro.errors import InvalidParameterError

__all__ = [
    "E_OVER_EM1",
    "LN4_MINUS_1",
    "rw_chain_ratio_R",
    "ra_chain_E",
    "det_rw_ratio",
    "det_ra_ratio",
    "rand_rw_uniform_ratio",
    "rand_rw_optimal_ratio",
    "rand_ra_ratio",
    "constrained_rw_ratio",
    "constrained_ra_ratio",
    "rw_mean_regime_threshold",
    "ra_mean_regime_threshold",
    "abort_probability_rw",
    "abort_probability_ra",
    "corollary1_bound",
]

#: ``e / (e - 1)`` — the classic randomized ski-rental ratio.
E_OVER_EM1 = math.e / (math.e - 1.0)

#: ``ln 4 - 1`` — normalization constant of the Theorem 5 log-density.
LN4_MINUS_1 = math.log(4.0) - 1.0


def _check_k(k: int) -> int:
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise InvalidParameterError(f"k must be an integer >= 2, got {k!r}")
    return k


def _check_bk(B: float, k: int) -> tuple[float, int]:
    """The policies' rule for ``B`` and ``k``: ``B`` finite and
    positive, ``k`` an integer ``>= 2``."""
    if not (isinstance(B, (int, float)) and math.isfinite(B) and B > 0):
        raise InvalidParameterError(f"B must be finite and positive, got {B!r}")
    return float(B), _check_k(k)


def _check_mu(mu: float) -> float:
    if not (isinstance(mu, (int, float)) and math.isfinite(mu) and mu >= 0):
        raise InvalidParameterError(f"mu must be finite and >= 0, got {mu!r}")
    return mu


def rw_chain_ratio_R(k: int) -> float:
    """``R = (k/(k-1))^{k-1} = k^{k-1}/(k-1)^{k-1}``, computed stably.

    ``R`` increases monotonically from 2 (k = 2) toward ``e``; every
    Theorem 6 quantity is a rational function of ``R``.
    """
    k = _check_k(k)
    return math.exp((k - 1) * math.log(k / (k - 1)))


def ra_chain_E(k: int) -> float:
    """``E = e^{1/(k-1)}`` — the chain analogue of ``e`` in Theorem 3."""
    return math.exp(1.0 / (_check_k(k) - 1))


def det_rw_ratio(k: int = 2) -> float:
    """Theorem 4: deterministic requestor-wins ratio ``2 + 1/(k-1)``."""
    return 2.0 + 1.0 / (_check_k(k) - 1)


def det_ra_ratio(k: int = 2) -> float:
    """Deterministic requestor-aborts ratio: 2 at ``k = 2`` (classic ski
    rental); ``k`` for chains under ``OPT = min((k-1)D, B)``."""
    return float(_check_k(k))


def rand_rw_uniform_ratio(k: int = 2) -> float:
    """Theorem 5: the uniform strategy's guaranteed ratio.

    Exactly 2 at ``k = 2``.  The paper states 2 for every ``k``; the
    uniform strategy's exact ratio at ``k >= 3`` is not reported, so
    this returns the guaranteed bound 2 (Theorem 6's polynomial density
    is the optimum there, :func:`rand_rw_optimal_ratio`).
    """
    _check_k(k)
    return 2.0


def rand_rw_optimal_ratio(k: int = 2) -> float:
    """The optimal unconstrained randomized requestor-wins ratio.

    2 for ``k = 2`` (Theorem 5); ``R/(R-1)`` with
    ``R = (k/(k-1))^{k-1}`` for ``k >= 3`` (Theorem 6), decreasing
    toward ``e/(e-1)``.
    """
    k = _check_k(k)
    if k == 2:
        return 2.0
    R = rw_chain_ratio_R(k)
    return R / (R - 1.0)


def rand_ra_ratio(k: int = 2) -> float:
    """Theorems 1/3: unconstrained randomized requestor-aborts ratio
    ``E/(E-1)`` with ``E = e^{1/(k-1)}`` (increases with k)."""
    E = ra_chain_E(k)
    return E / (E - 1.0)


def constrained_rw_ratio(B: float, mu: float, k: int = 2) -> float:
    """Theorems 5/6: mean-constrained requestor-wins ratio.

    ``1 + mu/(2B(ln4-1))`` at ``k = 2``;
    ``1 + mu(k-2)/(2B(R-2))`` for ``k >= 3`` (corrected Theorem 6).
    Only meaningful inside the regime (see
    :func:`rw_mean_regime_threshold`).
    """
    B, k = _check_bk(B, k)
    mu = _check_mu(mu)
    if k == 2:
        return 1.0 + mu / (2.0 * B * LN4_MINUS_1)
    R = rw_chain_ratio_R(k)
    return 1.0 + mu * (k - 2) / (2.0 * B * (R - 2.0))


def constrained_ra_ratio(B: float, mu: float, k: int = 2) -> float:
    """Theorems 2/3: mean-constrained requestor-aborts ratio
    ``1 + mu(k-1)/(2BZ)`` with ``Z = (k-1)(e^{1/(k-1)} - 1) - 1``
    (``1 + mu/(2B(e-2))`` at ``k = 2``)."""
    B, k = _check_bk(B, k)
    mu = _check_mu(mu)
    E = ra_chain_E(k)
    Z = (k - 1) * (E - 1.0) - 1.0
    return 1.0 + mu * (k - 1) / (2.0 * B * Z)


def rw_mean_regime_threshold(k: int = 2) -> float:
    """Largest ``mu/B`` for which the constrained RW policy wins.

    ``2(ln4 - 1)`` at ``k = 2``; ``2(R-2)/((k-2)(R-1))`` for
    ``k >= 3``.
    """
    k = _check_k(k)
    if k == 2:
        return 2.0 * LN4_MINUS_1
    R = rw_chain_ratio_R(k)
    return 2.0 * (R - 2.0) / ((k - 2) * (R - 1.0))


def ra_mean_regime_threshold(k: int = 2) -> float:
    """Largest ``mu/B`` for which the constrained RA policy wins:
    ``2Z/((k-1)(E-1))`` (``2(e-2)/(e-1)`` at ``k = 2``)."""
    k = _check_k(k)
    E = ra_chain_E(k)
    Z = (k - 1) * (E - 1.0) - 1.0
    return 2.0 * Z / ((k - 1) * (E - 1.0))


def abort_probability_rw(B: float, k: int = 2) -> float:
    """Section 5.3: P(abort) for the constrained RW policy when the
    adversary plays its best response ``y = B`` (``k = 2``).

    The paper reads the log-density at the right end of its support,
    ``p(B) = ln2/(B(ln4-1))``, as the per-step probability of
    committing there and reports ``1 - p(B)``, approximately
    ``1 - 1.8/B``; this returns that value.  (The exact
    ``1 - F(B)`` is 0 at the support's end, which says nothing.)
    """
    B, k = _check_bk(B, k)
    if k != 2:
        raise InvalidParameterError("Section 5.3 analyzes k = 2 only")
    return 1.0 - math.log(2.0) / (B * LN4_MINUS_1)


def abort_probability_ra(B: float, k: int = 2) -> float:
    """Section 5.3: ``1 - p(B)`` for the constrained RA policy,
    ``p(B) = (e-1)/(B(e-2))`` -> approximately ``1 - 2.4/B``."""
    B, k = _check_bk(B, k)
    if k != 2:
        raise InvalidParameterError("Section 5.3 analyzes k = 2 only")
    return 1.0 - (math.e - 1.0) / (B * (math.e - 2.0))


def corollary1_bound(waste: float) -> float:
    """Corollary 1: global throughput-competitiveness bound
    ``(2w + 1)/(w + 1)`` given the offline algorithm's waste ``w(S)``.

    Monotone in ``w`` and always < 2.
    """
    if waste < 0.0 or not math.isfinite(waste):
        raise InvalidParameterError(f"waste must be finite and >= 0, got {waste}")
    return (2.0 * waste + 1.0) / (waste + 1.0)
