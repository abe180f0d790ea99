"""Tests for the closed-form ratio/threshold module."""

from __future__ import annotations

import math

import pytest

from repro.core import ratios
from repro.errors import InvalidParameterError


class TestUnconstrained:
    def test_det_rw(self):
        assert ratios.det_rw_ratio(2) == 3.0
        assert ratios.det_rw_ratio(3) == 2.5
        assert ratios.det_rw_ratio(11) == 2.1

    def test_det_ra(self):
        assert ratios.det_ra_ratio(2) == 2.0
        assert ratios.det_ra_ratio(7) == 7.0

    def test_rand_rw_uniform_always_two(self):
        for k in (2, 3, 50):
            assert ratios.rand_rw_uniform_ratio(k) == 2.0

    def test_rand_rw_optimal(self):
        assert ratios.rand_rw_optimal_ratio(2) == 2.0
        assert ratios.rand_rw_optimal_ratio(3) == pytest.approx(9 / 5)

    def test_rand_ra_k2(self):
        assert ratios.rand_ra_ratio(2) == pytest.approx(ratios.E_OVER_EM1)

    def test_rand_ra_grows_linearly_for_large_k(self):
        # E - 1 ~ 1/(k-1) so ratio ~ k
        assert ratios.rand_ra_ratio(100) == pytest.approx(100.5, rel=1e-2)

    def test_randomized_beats_deterministic(self):
        for k in (2, 3, 8):
            assert ratios.rand_rw_optimal_ratio(k) < ratios.det_rw_ratio(k)
            assert ratios.rand_ra_ratio(k) <= ratios.det_ra_ratio(k)

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            ratios.det_rw_ratio(1)


class TestConstrained:
    def test_rw_k2_formula(self):
        B, mu = 100.0, 10.0
        assert ratios.constrained_rw_ratio(B, mu) == pytest.approx(
            1 + mu / (2 * B * ratios.LN4_MINUS_1)
        )

    def test_ra_k2_formula(self):
        B, mu = 100.0, 10.0
        assert ratios.constrained_ra_ratio(B, mu) == pytest.approx(
            1 + mu / (2 * B * (math.e - 2))
        )

    def test_ratio_to_one_as_mu_to_zero(self):
        assert ratios.constrained_rw_ratio(100.0, 1e-9) == pytest.approx(1.0)
        assert ratios.constrained_ra_ratio(100.0, 1e-9) == pytest.approx(1.0)

    def test_thresholds_consistency(self):
        """At the regime threshold the constrained ratio equals the
        unconstrained one — the two regimes meet continuously."""
        B = 100.0
        for k in (2, 3, 5, 9):
            mu_star = B * ratios.rw_mean_regime_threshold(k)
            assert ratios.constrained_rw_ratio(B, mu_star, k) == pytest.approx(
                ratios.rand_rw_optimal_ratio(k), rel=1e-9
            )
            mu_star = B * ratios.ra_mean_regime_threshold(k)
            assert ratios.constrained_ra_ratio(B, mu_star, k) == pytest.approx(
                ratios.rand_ra_ratio(k), rel=1e-9
            )

    def test_rw_threshold_k2(self):
        assert ratios.rw_mean_regime_threshold(2) == pytest.approx(
            2 * (math.log(4) - 1)
        )

    def test_ra_threshold_k2(self):
        assert ratios.ra_mean_regime_threshold(2) == pytest.approx(
            2 * (math.e - 2) / (math.e - 1)
        )


class TestAbortProbability:
    def test_rw_approximation(self):
        for B in (100.0, 1000.0):
            assert ratios.abort_probability_rw(B) == pytest.approx(
                1 - 1.8 / B, abs=0.2 / B
            )

    def test_ra_approximation(self):
        for B in (100.0, 1000.0):
            assert ratios.abort_probability_ra(B) == pytest.approx(
                1 - 2.4 / B, abs=0.2 / B
            )

    def test_ra_less_likely_to_abort(self):
        for B in (10.0, 100.0, 1e5):
            assert ratios.abort_probability_ra(B) < ratios.abort_probability_rw(B)

    def test_k_not_2_rejected(self):
        with pytest.raises(InvalidParameterError):
            ratios.abort_probability_rw(100.0, k=3)


#: every closed form that takes B, as ``f(B, mu)``
B_FORMS = {
    "constrained_rw_ratio": lambda B, mu: ratios.constrained_rw_ratio(B, mu, 2),
    "constrained_rw_ratio_k3": lambda B, mu: ratios.constrained_rw_ratio(B, mu, 3),
    "constrained_ra_ratio": lambda B, mu: ratios.constrained_ra_ratio(B, mu, 2),
    "constrained_ra_ratio_k3": lambda B, mu: ratios.constrained_ra_ratio(B, mu, 3),
    "abort_probability_rw": lambda B, mu: ratios.abort_probability_rw(B),
    "abort_probability_ra": lambda B, mu: ratios.abort_probability_ra(B),
}
#: the ones that also take mu
MU_FORMS = sorted(name for name in B_FORMS if name.startswith("constrained"))


class TestImpossibleInputs:
    """B must be finite and positive and mu finite and >= 0: without
    the check, ``constrained_rw_ratio(-100, 10)`` read 0.871 (a ratio
    below 1), ``abort_probability_ra(-2)`` 2.196, B = 0 divided by zero
    and a NaN passed through."""

    @pytest.mark.parametrize("name", sorted(B_FORMS))
    @pytest.mark.parametrize(
        "B", [-100.0, -2.0, 0.0, 0, math.nan, math.inf, -math.inf]
    )
    def test_bad_B_rejected(self, name, B):
        with pytest.raises(InvalidParameterError, match="B must be"):
            B_FORMS[name](B, 10.0)

    @pytest.mark.parametrize("name", MU_FORMS)
    @pytest.mark.parametrize("mu", [-1.0, -1e-300, math.nan, math.inf])
    def test_bad_mu_rejected(self, name, mu):
        with pytest.raises(InvalidParameterError, match="mu must be"):
            B_FORMS[name](100.0, mu)

    @pytest.mark.parametrize("name", sorted(B_FORMS))
    def test_edge_values_accepted(self, name):
        assert math.isfinite(B_FORMS[name](1.0, 0.0))
        assert math.isfinite(B_FORMS[name](1e-9, 1e-300))


class TestCorollary1Bound:
    def test_zero_waste(self):
        assert ratios.corollary1_bound(0.0) == 1.0

    def test_monotone_below_two(self):
        values = [ratios.corollary1_bound(w) for w in (0.0, 0.5, 1.0, 10.0, 1e6)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 2.0 for v in values)

    def test_limit(self):
        assert ratios.corollary1_bound(1e12) == pytest.approx(2.0)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            ratios.corollary1_bound(-0.1)
        with pytest.raises(InvalidParameterError):
            ratios.corollary1_bound(math.inf)
