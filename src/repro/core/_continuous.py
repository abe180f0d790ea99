"""Shared machinery for continuous (density-based) delay policies.

Each optimal randomized policy in the paper is a continuous distribution
on ``[0, B/(k-1)]`` with a closed-form PDF.  This module provides a base
class that turns a vectorized PDF and an in-support CDF into a sampler:

* subclasses implement ``_cdf_inside``, the CDF formula on points inside
  the support; ``cdf_vec`` clamps to the support and pins the endpoints;
* closed-form inverse CDFs are used where available (subclass override);
* otherwise sampling inverts the CDF numerically on a dense grid, built
  on first use by a few in-place passes of ``_cdf_inside`` (a single
  vectorized ``np.interp`` per batch — no Python-level loops, per the
  HPC guides' "vectorize the hot path" rule).

The grid inversion is accurate to ``support_width / GRID_POINTS`` which
at the default 16384 points is far below any simulation timestep used in
the experiments; tests check sampler-vs-CDF agreement explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import DelayPolicy
from repro.errors import InvalidParameterError
from repro.rngutil import ensure_rng

__all__ = ["ContinuousDelayPolicy", "GRID_POINTS"]

#: Number of points in the inverse-CDF interpolation grid.
GRID_POINTS = 16384


class ContinuousDelayPolicy(DelayPolicy):
    """A delay policy defined by a continuous density on ``[lo, hi]``.

    Subclasses implement :meth:`pdf_vec` and :meth:`_cdf_inside`
    (vectorized over NumPy arrays) and set ``_lo`` / ``_hi``.
    :meth:`cdf_vec`, scalar ``pdf``/``cdf`` and sampling come for free.
    """

    _lo: float = 0.0
    _hi: float

    # -- vectorized distribution interface (subclass responsibility) ----
    def pdf_vec(self, x: np.ndarray) -> np.ndarray:
        """Vectorized PDF; zero outside the support."""
        raise NotImplementedError

    def _cdf_inside(self, x: np.ndarray) -> np.ndarray:
        """The CDF on an (at least 1-d) array of points inside
        ``[lo, hi]``, as a new array; ``x`` itself stays unchanged."""
        raise NotImplementedError

    def cdf_vec(self, x: np.ndarray) -> np.ndarray:
        """Vectorized CDF: 0 at and below ``lo``, 1 at and above ``hi``."""
        x = np.asarray(x, dtype=float)
        inside = self._cdf_inside(np.atleast_1d(np.clip(x, self._lo, self._hi)))
        inside = np.where(x <= self._lo, 0.0, inside.reshape(x.shape))
        return np.where(x >= self._hi, 1.0, inside)

    # -- DelayPolicy interface ------------------------------------------
    @property
    def support(self) -> tuple[float, float]:
        return (self._lo, self._hi)

    def pdf(self, x: float) -> float:
        return float(self.pdf_vec(np.asarray([x], dtype=float))[0])

    def cdf(self, x: float) -> float:
        return float(self.cdf_vec(np.asarray([x], dtype=float))[0])

    def ppf(self, q: np.ndarray | float) -> np.ndarray:
        """Quantile function (inverse CDF), vectorized; checks ``q``."""
        q_arr = np.asarray(q, dtype=float)
        if np.any((q_arr < 0.0) | (q_arr > 1.0)):
            raise InvalidParameterError("quantiles must lie in [0, 1]")
        return self._quantile(q_arr)

    def _quantile(self, q: np.ndarray | float) -> np.ndarray | float:
        """Unchecked quantile function for ``q`` in ``[0, 1]``.

        The default implementation interpolates a cached dense CDF grid;
        subclasses with closed-form inverses override this.
        """
        grid_x, grid_f = self._cdf_grid()
        return np.interp(q, grid_f, grid_x)

    # a generator draw lies in [0, 1) by construction: sample unchecked
    def sample(self, rng: np.random.Generator | int | None = None) -> float:
        gen = ensure_rng(rng)
        return float(self._quantile(gen.random()))

    def sample_many(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        gen = ensure_rng(rng)
        return np.atleast_1d(self._quantile(gen.random(n)))

    def expected_delay(self) -> float:
        xs = np.linspace(self._lo, self._hi, 8193)
        return float(np.trapezoid(xs * self.pdf_vec(xs), xs))

    # -- internals -------------------------------------------------------
    def _cdf_grid(self) -> tuple[np.ndarray, np.ndarray]:
        cached = getattr(self, "_grid_cache", None)
        if cached is None:
            xs = np.linspace(self._lo, self._hi, GRID_POINTS)
            fs = self._cdf_inside(xs)
            fs[0], fs[-1] = 0.0, 1.0
            # np.interp needs sorted xp: a dip (or a NaN, which fails
            # the check too) takes the running max, then re-pins
            if not (fs[1:] >= fs[:-1]).all():
                np.maximum.accumulate(fs, out=fs)
                fs[-1] = 1.0
            cached = self._grid_cache = (xs, fs)
        return cached

    def _in_support(self, x: np.ndarray) -> np.ndarray:
        return (x >= self._lo) & (x <= self._hi)
