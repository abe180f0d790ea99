"""Tests for the requestor-wins policies (Theorems 4-6)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.model import ConflictKind, ConflictModel
from repro.core.ratios import rw_chain_ratio_R
from repro.core.requestor_wins import (
    DeterministicRW,
    MeanConstrainedRW,
    PolynomialRW,
    UniformRW,
    optimal_requestor_wins,
)
from repro.core.verify import (
    competitive_ratio,
    constrained_competitive_ratio,
    expected_cost_curve,
)
from repro.errors import InvalidParameterError, RegimeError

B = 100.0


def _norm(policy) -> float:
    xs = np.linspace(*policy.support, 30001)
    return float(np.trapezoid(policy.pdf_vec(xs), xs))


class TestChainRatioR:
    def test_k2(self):
        assert rw_chain_ratio_R(2) == pytest.approx(2.0)

    def test_monotone_to_e(self):
        values = [rw_chain_ratio_R(k) for k in (2, 3, 5, 10, 100, 10_000)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(math.e, rel=1e-3)

    def test_large_k_no_overflow(self):
        assert math.isfinite(rw_chain_ratio_R(10_000_000))

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            rw_chain_ratio_R(1)


class TestDeterministicRW:
    def test_delay_is_cap(self):
        assert DeterministicRW(B, 2).delay == pytest.approx(B)
        assert DeterministicRW(B, 5).delay == pytest.approx(B / 4)

    @pytest.mark.parametrize("k,expected", [(2, 3.0), (3, 2.5), (5, 2.25)])
    def test_closed_form_ratio(self, k, expected):
        assert DeterministicRW(B, k).competitive_ratio == pytest.approx(expected)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_numeric_matches_theorem4(self, k):
        policy = DeterministicRW(B, k)
        model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, k)
        result = competitive_ratio(policy, model)
        assert result.ratio == pytest.approx(policy.competitive_ratio, rel=1e-4)

    def test_sampling_is_constant(self, rng):
        policy = DeterministicRW(B, 3)
        assert set(policy.sample_many(10, rng).tolist()) == {B / 2}

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            DeterministicRW(-1.0, 2)
        with pytest.raises(InvalidParameterError):
            DeterministicRW(B, 1)


class TestUniformRW:
    def test_normalization(self):
        for k in (2, 3, 8):
            assert _norm(UniformRW(B, k)) == pytest.approx(1.0, abs=1e-4)

    def test_support(self):
        assert UniformRW(B, 2).support == (0.0, B)
        assert UniformRW(B, 5).support == (0.0, B / 4)

    def test_pdf_value(self):
        policy = UniformRW(B, 4)
        assert policy.pdf(10.0) == pytest.approx(3 / B)
        assert policy.pdf(B) == 0.0  # outside [0, B/3]

    def test_cdf_linear(self):
        policy = UniformRW(B, 2)
        assert policy.cdf(25.0) == pytest.approx(0.25)
        assert policy.cdf(-5.0) == 0.0
        assert policy.cdf(B + 5) == 1.0

    def test_ppf_closed_form(self):
        policy = UniformRW(B, 2)
        assert float(policy.ppf(0.5)) == pytest.approx(B / 2)

    def test_ppf_rejects_bad_quantiles(self):
        with pytest.raises(InvalidParameterError):
            UniformRW(B, 2).ppf(1.5)

    def test_expected_delay(self):
        assert UniformRW(B, 2).expected_delay() == pytest.approx(B / 2)

    def test_sampling_uniformity(self, rng):
        samples = UniformRW(B, 2).sample_many(50_000, rng)
        assert samples.min() >= 0.0
        assert samples.max() <= B
        assert samples.mean() == pytest.approx(B / 2, rel=0.02)
        # quartiles
        assert np.quantile(samples, 0.25) == pytest.approx(B / 4, rel=0.05)

    def test_theorem5_ratio_exactly_two_k2(self):
        """The paper's headline: uniform on [0,B) is 2-competitive, with
        the ratio *equalized* (cost = 2y for every adversary choice)."""
        policy = UniformRW(B, 2)
        model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, 2)
        ys = np.linspace(0.5, B, 64)
        costs = expected_cost_curve(policy, model, ys)
        assert np.allclose(costs, 2.0 * ys, rtol=1e-3)

    def test_ratio_at_most_two_any_k(self):
        for k in (2, 3, 6):
            policy = UniformRW(B, k)
            model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, k)
            assert competitive_ratio(policy, model).ratio <= 2.0 + 1e-3


class TestMeanConstrainedRW:
    def test_normalization(self):
        assert _norm(MeanConstrainedRW(B, 10.0)) == pytest.approx(1.0, abs=1e-4)

    def test_pdf_vanishes_at_zero(self):
        assert MeanConstrainedRW(B, 10.0).pdf(0.0) == pytest.approx(0.0)

    def test_pdf_increasing(self):
        policy = MeanConstrainedRW(B, 10.0)
        xs = np.linspace(0, B, 100)
        pdf = policy.pdf_vec(xs)
        assert np.all(np.diff(pdf) > 0)

    def test_regime_threshold(self):
        limit = 2.0 * (math.log(4) - 1.0)
        assert MeanConstrainedRW.regime_holds(B, (limit - 1e-6) * B)
        assert not MeanConstrainedRW.regime_holds(B, (limit + 1e-6) * B)

    def test_out_of_regime_raises(self):
        with pytest.raises(RegimeError):
            MeanConstrainedRW(B, 90.0)

    def test_out_of_regime_escape_hatch(self):
        policy = MeanConstrainedRW(B, 90.0, strict_regime=False)
        assert _norm(policy) == pytest.approx(1.0, abs=1e-4)

    def test_closed_form_ratio(self):
        mu = 20.0
        expected = 1.0 + mu / (2 * B * (math.log(4) - 1))
        assert MeanConstrainedRW(B, mu).competitive_ratio == pytest.approx(expected)

    def test_equalization_identity(self):
        """Cost(p, y) / y == 1 + lambda2 * y on the whole support — the
        Lagrangian equalization that makes the policy optimal."""
        policy = MeanConstrainedRW(B, 10.0)
        model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, 2)
        ys = np.linspace(1.0, B * 0.999, 50)
        lhs = expected_cost_curve(policy, model, ys) / ys
        rhs = 1.0 + policy.lagrange_lambda2 * ys
        assert np.allclose(lhs, rhs, rtol=1e-4)

    def test_constrained_ratio_numeric(self):
        policy = MeanConstrainedRW(B, 10.0)
        model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, 2)
        result = constrained_competitive_ratio(policy, model, 10.0)
        assert result.ratio == pytest.approx(policy.competitive_ratio, rel=1e-3)

    def test_beats_uniform_in_regime(self):
        """The constrained policy's guarantee must beat 2 inside the
        regime against mean-constrained adversaries."""
        policy = MeanConstrainedRW(B, 10.0)
        assert policy.competitive_ratio < 2.0

    def test_sampling_matches_cdf(self, rng):
        policy = MeanConstrainedRW(B, 10.0)
        samples = policy.sample_many(40_000, rng)
        for q in (0.1, 0.5, 0.9):
            empirical = float(np.quantile(samples, q))
            assert policy.cdf(empirical) == pytest.approx(q, abs=0.02)


class TestPolynomialRW:
    @pytest.mark.parametrize("k", [3, 4, 8, 40])
    def test_normalization_unconstrained(self, k):
        assert _norm(PolynomialRW(B, k)) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("k", [3, 4, 8])
    def test_normalization_constrained(self, k):
        mu = 0.5 * B * PolynomialRW.regime_threshold(k)
        assert _norm(PolynomialRW(B, k, mu)) == pytest.approx(1.0, abs=1e-4)

    def test_k2_rejected(self):
        with pytest.raises(InvalidParameterError):
            PolynomialRW(B, 2)

    def test_unconstrained_ratio_formula(self):
        for k in (3, 4, 10):
            R = rw_chain_ratio_R(k)
            assert PolynomialRW(B, k).competitive_ratio == pytest.approx(
                R / (R - 1)
            )

    @pytest.mark.parametrize("k", [3, 4, 8])
    def test_unconstrained_numeric_matches(self, k):
        policy = PolynomialRW(B, k)
        model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, k)
        result = competitive_ratio(policy, model)
        assert result.ratio == pytest.approx(policy.competitive_ratio, rel=2e-3)

    def test_ratio_beats_uniform_for_k3(self):
        assert PolynomialRW(B, 3).competitive_ratio < 2.0

    def test_ratio_decreases_toward_e_ratio(self):
        rats = [PolynomialRW(B, k).competitive_ratio for k in (3, 5, 20, 200)]
        assert all(a > b for a, b in zip(rats, rats[1:]))
        assert rats[-1] == pytest.approx(math.e / (math.e - 1), rel=1e-2)

    def test_constrained_pdf_vanishes_at_zero(self):
        k = 4
        mu = 0.5 * B * PolynomialRW.regime_threshold(k)
        assert PolynomialRW(B, k, mu).pdf(0.0) == pytest.approx(0.0)

    def test_constrained_equalization_identity(self):
        """The corrected Theorem 6 form satisfies
        Cost(p, y) = (k-1) y (1 + lambda2 y) on the support — the
        paper's printed coefficients do not (they are negative at 0)."""
        k = 4
        mu = 0.5 * B * PolynomialRW.regime_threshold(k)
        policy = PolynomialRW(B, k, mu)
        model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, k)
        ys = np.linspace(0.5, model.delay_cap * 0.999, 40)
        lhs = expected_cost_curve(policy, model, ys) / (model.waiters * ys)
        rhs = 1.0 + policy.lagrange_lambda2 * ys
        assert np.allclose(lhs, rhs, rtol=1e-4)

    def test_constrained_numeric_ratio(self):
        k = 5
        mu = 0.5 * B * PolynomialRW.regime_threshold(k)
        policy = PolynomialRW(B, k, mu)
        model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, k)
        result = constrained_competitive_ratio(policy, model, mu)
        assert result.ratio == pytest.approx(policy.competitive_ratio, rel=2e-3)

    def test_constrained_converges_to_log_form_as_k_to_2(self):
        """k -> 2 limit of the corrected Theorem 6 is Theorem 5's
        log-density (consistency of the correction)."""
        mu = 5.0
        log_policy = MeanConstrainedRW(B, mu)
        # use strict_regime=False: thresholds converge but not equal
        poly = PolynomialRW(B, 3, mu, strict_regime=False)
        # compare competitive ratios along k: 3 is still close-ish; the
        # real check is the limit of the formula
        from repro.core.ratios import constrained_rw_ratio

        r2 = constrained_rw_ratio(B, mu, 2)
        # evaluate the k>2 formula at k close to 2 via its R expression
        for k, tol in ((3, 0.25), (4, 0.4)):
            rk = constrained_rw_ratio(B, mu, k)
            assert abs(rk - r2) / r2 < tol

    def test_regime_out_raises(self):
        k = 4
        mu = 2.0 * B * PolynomialRW.regime_threshold(k)
        with pytest.raises(RegimeError):
            PolynomialRW(B, k, mu)

    def test_closed_form_ppf_roundtrip(self):
        policy = PolynomialRW(B, 6)
        qs = np.linspace(0.01, 0.99, 21)
        xs = policy.ppf(qs)
        assert np.allclose(policy.cdf_vec(xs), qs, atol=1e-9)

    def test_large_k_stable(self):
        policy = PolynomialRW(B, 100_000)
        assert math.isfinite(policy.competitive_ratio)
        assert _norm(policy) == pytest.approx(1.0, abs=1e-3)


class TestFactory:
    def test_deterministic(self):
        assert isinstance(
            optimal_requestor_wins(B, deterministic=True), DeterministicRW
        )

    def test_k2_unconstrained(self):
        assert isinstance(optimal_requestor_wins(B), UniformRW)

    def test_k2_constrained_in_regime(self):
        assert isinstance(optimal_requestor_wins(B, mu=10.0), MeanConstrainedRW)

    def test_k2_constrained_out_of_regime_falls_back(self):
        assert isinstance(optimal_requestor_wins(B, mu=95.0), UniformRW)

    def test_k3_unconstrained(self):
        policy = optimal_requestor_wins(B, 3)
        assert isinstance(policy, PolynomialRW)
        assert not policy.constrained

    def test_k3_constrained(self):
        mu = 0.5 * B * PolynomialRW.regime_threshold(3)
        policy = optimal_requestor_wins(B, 3, mu)
        assert isinstance(policy, PolynomialRW)
        assert policy.constrained

    def test_k3_out_of_regime_falls_back(self):
        mu = 3.0 * B * PolynomialRW.regime_threshold(3)
        policy = optimal_requestor_wins(B, 3, mu)
        assert isinstance(policy, PolynomialRW)
        assert not policy.constrained
