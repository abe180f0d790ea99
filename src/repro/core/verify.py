"""Numeric verification of the paper's optimality claims.

Closed-form theorems are only trustworthy once checked against an
implementation-independent computation, so this module evaluates any
:class:`~repro.core.policy.DelayPolicy` against any
:class:`~repro.core.model.ConflictModel` numerically:

* :func:`expected_cost` — ``E_x[cost(x, D)]`` by cumulative trapezoid
  quadrature (continuous policies), exact summation (discrete), or
  direct evaluation (deterministic).  The whole ``D``-grid is evaluated
  with one shared ``x``-grid pass (vectorized; no per-D quadrature).
* :func:`competitive_ratio` — ``sup_D E[cost]/OPT(D)`` over an
  adversary grid that includes the policy's support edges and the
  "always abort" limit ``D -> inf`` (where ``OPT = B``).
* :func:`constrained_competitive_ratio` — the best adversary *with a
  mean constraint* ``E[D] = mu``.  Over distributions on a grid the
  maximizer of ``E_pi[g(D)]`` subject to ``E_pi[D] = mu`` is the upper
  concave envelope of ``g`` evaluated at ``mu`` (two-point adversaries
  suffice), which we compute with a monotone-chain upper hull.
* :func:`simulate_costs` — Monte-Carlo realized costs, for
  theory-vs-simulation agreement tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.model import ConflictModel
from repro.core.policy import DelayPolicy
from repro.errors import InvalidParameterError
from repro.rngutil import ensure_rng

__all__ = [
    "RatioResult",
    "expected_cost",
    "expected_cost_curve",
    "competitive_ratio",
    "constrained_competitive_ratio",
    "simulate_costs",
    "abort_probability",
]

#: x-grid resolution for quadrature over the policy support.
_X_GRID = 8193


@dataclass(frozen=True)
class RatioResult:
    """Outcome of a competitive-ratio computation."""

    ratio: float
    worst_remaining: float

    def __float__(self) -> float:  # pragma: no cover - convenience
        return self.ratio


def _policy_support(policy: DelayPolicy) -> tuple[float, float]:
    lo, hi = policy.support
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise InvalidParameterError(
            f"policy {policy.name!r} has unusable support {policy.support!r}"
        )
    return lo, hi


def expected_cost_curve(
    policy: DelayPolicy, model: ConflictModel, remaining: np.ndarray
) -> np.ndarray:
    """``E_x[cost(x, D)]`` for every ``D`` in ``remaining`` (vectorized).

    Decomposition (tie ``x = D`` commits, measure zero for continuous
    policies): aborts happen for ``x < D``, commits for ``x >= D``::

        E(D) = integral_{lo}^{min(D,hi)} abort(x) p(x) dx
             + (k-1) * D * P(x >= D)
    """
    d = np.asarray(remaining, dtype=float)
    if np.any(d < 0):
        raise InvalidParameterError("remaining times must be >= 0")
    lo, hi = _policy_support(policy)

    if policy.is_deterministic():
        x0 = float(policy.sample())
        commit = d <= x0
        return np.where(
            commit,
            model.waiters * d,
            float(model.aborted_cost(np.asarray([x0]))[0]),
        )

    if hasattr(policy, "pdf_vec"):
        xs = np.linspace(lo, hi, _X_GRID)
        integrand = model.aborted_cost(xs) * policy.pdf_vec(xs)
        # cumulative trapezoid: A[i] = integral_{lo}^{xs[i]} abort * p
        dx = xs[1] - xs[0] if len(xs) > 1 else 0.0
        segments = 0.5 * (integrand[1:] + integrand[:-1]) * dx
        cum = np.concatenate(([0.0], np.cumsum(segments)))
        d_clip = np.clip(d, lo, hi)
        abort_part = np.interp(d_clip, xs, cum)
        # P(x >= D) with P(x >= D) = 1 - F(D) (+ mass exactly at D for
        # continuous policies is zero)
        surv = 1.0 - policy.cdf_vec(d)
        return abort_part + model.waiters * d * surv

    if hasattr(policy, "_pmf"):
        delays = np.arange(len(policy._pmf), dtype=float)
        pmf = np.asarray(policy._pmf, dtype=float)
        aborts = model.aborted_cost(delays)
        # For each D: sum_{x < D} abort(x) pmf(x) + (k-1) D P(x >= D)
        out = np.empty_like(d)
        for i, di in enumerate(d.ravel()):
            abort_mask = delays < di
            out.ravel()[i] = float(
                np.dot(pmf[abort_mask], aborts[abort_mask])
            ) + model.waiters * di * float(pmf[~abort_mask].sum())
        return out

    raise InvalidParameterError(
        f"cannot integrate policy {policy.name!r}: no pdf_vec/_pmf and not "
        f"deterministic"
    )


def expected_cost(
    policy: DelayPolicy, model: ConflictModel, remaining: float
) -> float:
    """Scalar convenience wrapper over :func:`expected_cost_curve`."""
    return float(expected_cost_curve(policy, model, np.asarray([remaining]))[0])


def _adversary_grid(
    policy: DelayPolicy, model: ConflictModel, n: int, d_max_factor: float
) -> np.ndarray:
    """Adversary D values: dense over (0, cap], refined near support
    edges / point masses, extended past the cap (OPT flattens at B)."""
    lo, hi = _policy_support(policy)
    cap = model.delay_cap
    d_max = max(cap, hi) * d_max_factor
    if hasattr(policy, "_pmf"):
        # Day-indexed (discrete) policies live in a model where the
        # adversary picks whole days D >= 1; a fractional D < 1 would
        # let it exploit the buy-on-day-1 mass outside the model.
        return np.arange(1.0, math.ceil(d_max) + 1.0)
    grid = np.linspace(d_max / n, d_max, n)
    special: list[float] = []
    eps = 1e-9 * max(1.0, cap)
    for edge in (lo, hi, cap, policy.sample() if policy.is_deterministic() else cap):
        for point in (edge - eps, edge, edge + eps):
            if point > 0:
                special.append(point)
    return np.unique(np.concatenate((grid, np.asarray(special))))


def competitive_ratio(
    policy: DelayPolicy,
    model: ConflictModel,
    *,
    grid: int = 2048,
    d_max_factor: float = 4.0,
) -> RatioResult:
    """``sup_D E[cost(policy, D)] / OPT(D)`` over the adversary grid.

    The returned supremum is a *lower bound* on the true worst case
    (grid search), accurate to the grid resolution; tests use tolerances
    accordingly.
    """
    d = _adversary_grid(policy, model, grid, d_max_factor)
    ratios = expected_cost_curve(policy, model, d) / model.opt_vec(d)
    idx = int(np.argmax(ratios))
    return RatioResult(float(ratios[idx]), float(d[idx]))


def _upper_concave_envelope(xs: np.ndarray, ys: np.ndarray, at: float) -> float:
    """Value at ``at`` of the upper concave envelope of ``(xs, ys)``
    (monotone-chain upper hull + linear interpolation).  The extremal
    mean-constrained adversary is a two-point distribution, so the
    envelope at ``mu`` is the constrained competitive ratio."""
    order = np.argsort(xs)
    pts = list(zip(xs[order].tolist(), ys[order].tolist()))
    hull: list[tuple[float, float]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) >= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        if hull and hull[-1][0] == p[0]:
            if p[1] > hull[-1][1]:
                hull[-1] = p
            continue
        hull.append(p)
    hx = np.asarray([p[0] for p in hull])
    hy = np.asarray([p[1] for p in hull])
    if at <= hx[0]:
        return float(hy[0])
    if at >= hx[-1]:
        return float(hy[-1])
    return float(np.interp(at, hx, hy))


def constrained_competitive_ratio(
    policy: DelayPolicy,
    model: ConflictModel,
    mu: float,
    *,
    grid: int = 2048,
    d_max_factor: float = 4.0,
) -> RatioResult:
    """Best adversary with mean ``mu``: the upper concave envelope of
    the pointwise ratio curve, evaluated at ``mu``.

    Two-point adversary distributions are extremal for a single linear
    constraint, and the envelope value is exactly the best two-point
    mixture.  For the paper's optimal constrained policies the ratio
    curve is linear (``1 + lambda2 * D``) so the envelope at ``mu`` is
    ``1 + lambda2 * mu`` — the closed-form competitive ratio.
    """
    if mu <= 0 or not math.isfinite(mu):
        raise InvalidParameterError(f"mu must be finite and positive, got {mu}")
    d = _adversary_grid(policy, model, grid, d_max_factor)
    ratios = expected_cost_curve(policy, model, d) / model.opt_vec(d)
    value = _upper_concave_envelope(d, ratios, mu)
    return RatioResult(value, mu)


def simulate_costs(
    policy: DelayPolicy,
    model: ConflictModel,
    remaining: np.ndarray | float,
    rng: np.random.Generator | int | None = None,
    *,
    n: int | None = None,
) -> np.ndarray:
    """Monte-Carlo realized conflict costs.

    ``remaining`` may be a scalar (replicated ``n`` times) or an array of
    per-trial remaining times; one delay is drawn per trial.
    """
    gen = ensure_rng(rng)
    d = np.asarray(remaining, dtype=float)
    if d.ndim == 0:
        if n is None:
            raise InvalidParameterError("scalar remaining requires n trials")
        d = np.full(n, float(d))
    delays = policy.sample_many(d.size, gen)
    return model.cost_vec(delays, d)


def abort_probability(
    policy: DelayPolicy, model: ConflictModel, remaining: float
) -> float:
    """``P(policy aborts | remaining = D)`` = ``P(x < D)``."""
    if remaining < 0:
        raise InvalidParameterError("remaining must be >= 0")
    if hasattr(policy, "cdf_vec"):
        return float(policy.cdf_vec(np.asarray([remaining]))[0])
    return policy.cdf(remaining - 1e-12 * max(1.0, remaining))
