"""Shared machinery for continuous (density-based) delay policies.

Each optimal randomized policy in the paper is a continuous distribution
on ``[0, B/(k-1)]`` with a closed-form PDF.  This module provides a base
class that turns a vectorized PDF/CDF pair into a sampler:

* closed-form inverse CDFs are used where available (subclass override);
* otherwise sampling inverts the CDF numerically on a dense precomputed
  grid (a single vectorized ``np.interp`` per batch — no Python-level
  loops, per the HPC guides' "vectorize the hot path" rule).

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

    Subclasses implement :meth:`pdf_vec` and :meth:`cdf_vec` (vectorized
    over NumPy arrays) and set ``_lo`` / ``_hi``.  Scalar ``pdf``/``cdf``
    and sampling come for free.
    """

    _lo: float = 0.0
    _hi: float

    # -- vectorized distribution interface (subclass responsibility) ----
    def pdf_vec(self, x: np.ndarray) -> np.ndarray:
        """Vectorized PDF; zero outside the support."""
        raise NotImplementedError

    def cdf_vec(self, x: np.ndarray) -> np.ndarray:
        """Vectorized CDF."""
        raise NotImplementedError

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
            fs = self.cdf_vec(xs)
            # Guard against tiny numeric non-monotonicity so np.interp's
            # precondition (sorted xp) holds exactly.
            fs = np.maximum.accumulate(fs)
            fs[0], fs[-1] = 0.0, 1.0
            cached = (xs, fs)
            self._grid_cache = cached
        return cached

    def _in_support(self, x: np.ndarray) -> np.ndarray:
        return (x >= self._lo) & (x <= self._hi)
