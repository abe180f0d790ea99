"""Tests for the requestor-aborts / ski-rental policies (Theorems 1-3)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.model import ConflictKind, ConflictModel
from repro.core.ratios import ra_chain_E
from repro.core.ski_rental import karlin_pmf
from repro.core.requestor_aborts import (
    ChainRA,
    DeterministicRA,
    DiscreteSkiRentalRA,
    ExponentialRA,
    MeanConstrainedRA,
    optimal_requestor_aborts,
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


class TestChainE:
    def test_k2_is_e(self):
        assert ra_chain_E(2) == pytest.approx(math.e)

    def test_decreasing_to_one(self):
        values = [ra_chain_E(k) for k in (2, 3, 10, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=2e-3)


class TestDeterministicRA:
    def test_delay(self):
        assert DeterministicRA(B, 2).delay == pytest.approx(B)
        assert DeterministicRA(B, 5).delay == pytest.approx(B / 4)

    def test_classic_ratio_two(self):
        policy = DeterministicRA(B, 2)
        model = ConflictModel(ConflictKind.REQUESTOR_ABORTS, B, 2)
        assert competitive_ratio(policy, model).ratio == pytest.approx(
            2.0, rel=1e-4
        )

    @pytest.mark.parametrize("k", [3, 5])
    def test_chain_ratio_k(self, k):
        policy = DeterministicRA(B, k)
        model = ConflictModel(ConflictKind.REQUESTOR_ABORTS, B, k)
        assert competitive_ratio(policy, model).ratio == pytest.approx(
            float(k), rel=1e-3
        )


class TestExponentialRA:
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_normalization(self, k):
        assert _norm(ExponentialRA(B, k)) == pytest.approx(1.0, abs=1e-4)

    def test_k2_ratio_e_over_em1(self):
        policy = ExponentialRA(B, 2)
        assert policy.competitive_ratio == pytest.approx(
            math.e / (math.e - 1)
        )

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_numeric_matches_closed_form(self, k):
        policy = ExponentialRA(B, k)
        model = ConflictModel(ConflictKind.REQUESTOR_ABORTS, B, k)
        result = competitive_ratio(policy, model)
        assert result.ratio == pytest.approx(policy.competitive_ratio, rel=1e-3)

    def test_equalized_cost(self):
        """e/(e-1)-competitiveness is equalized: Cost(p,y) = C1 * y."""
        policy = ExponentialRA(B, 2)
        model = ConflictModel(ConflictKind.REQUESTOR_ABORTS, B, 2)
        ys = np.linspace(1.0, B * 0.999, 40)
        costs = expected_cost_curve(policy, model, ys)
        assert np.allclose(costs, policy.competitive_ratio * ys, rtol=1e-3)

    def test_ratio_increases_with_k(self):
        rats = [ExponentialRA(B, k).competitive_ratio for k in (2, 3, 5, 10)]
        assert all(a < b for a, b in zip(rats, rats[1:]))

    def test_ppf_closed_form_roundtrip(self):
        policy = ExponentialRA(B, 3)
        qs = np.linspace(0.01, 0.99, 17)
        assert np.allclose(policy.cdf_vec(policy.ppf(qs)), qs, atol=1e-9)

    def test_sampling_matches_cdf(self, rng):
        policy = ExponentialRA(B, 2)
        samples = policy.sample_many(40_000, rng)
        for q in (0.25, 0.5, 0.75):
            assert policy.cdf(float(np.quantile(samples, q))) == pytest.approx(
                q, abs=0.02
            )


class TestChainRAConstrained:
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_normalization(self, k):
        mu = 0.4 * B * ChainRA.regime_threshold(k)
        assert _norm(ChainRA(B, k, mu)) == pytest.approx(1.0, abs=1e-4)

    def test_pdf_vanishes_at_zero(self):
        policy = ChainRA(B, 2, 10.0)
        assert policy.pdf(0.0) == pytest.approx(0.0)

    def test_theorem2_ratio(self):
        mu = 10.0
        expected = 1.0 + mu / (2 * B * (math.e - 2))
        assert MeanConstrainedRA(B, mu).competitive_ratio == pytest.approx(
            expected
        )

    def test_theorem2_regime(self):
        limit = 2 * (math.e - 2) / (math.e - 1)
        assert ChainRA.regime_threshold(2) == pytest.approx(limit)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_equalization_identity(self, k):
        mu = 0.4 * B * ChainRA.regime_threshold(k)
        policy = ChainRA(B, k, mu)
        model = ConflictModel(ConflictKind.REQUESTOR_ABORTS, B, k)
        ys = np.linspace(0.5, model.delay_cap * 0.999, 40)
        lhs = expected_cost_curve(policy, model, ys) / (model.waiters * ys)
        rhs = 1.0 + policy.lagrange_lambda2 * ys
        assert np.allclose(lhs, rhs, rtol=1e-4)

    @pytest.mark.parametrize("k", [2, 5])
    def test_constrained_numeric_ratio(self, k):
        mu = 0.4 * B * ChainRA.regime_threshold(k)
        policy = ChainRA(B, k, mu)
        model = ConflictModel(ConflictKind.REQUESTOR_ABORTS, B, k)
        result = constrained_competitive_ratio(policy, model, mu)
        assert result.ratio == pytest.approx(policy.competitive_ratio, rel=2e-3)

    def test_out_of_regime_raises(self):
        with pytest.raises(RegimeError):
            ChainRA(B, 2, B)

    def test_beats_unconstrained_in_regime(self):
        for k in (2, 4):
            mu = 0.4 * B * ChainRA.regime_threshold(k)
            assert (
                ChainRA(B, k, mu).competitive_ratio
                < ExponentialRA(B, k).competitive_ratio
            )


class TestDiscreteSkiRental:
    def test_pmf_sums_to_one(self):
        policy = DiscreteSkiRentalRA(50)
        assert policy._pmf.sum() == pytest.approx(1.0)

    def test_pmf_formula(self):
        """p(i) = ((B-1)/B)^{B-i} / (B(1-(1-1/B)^B)) — Theorem 1."""
        Bi = 20
        policy = DiscreteSkiRentalRA(Bi)
        q = (Bi - 1) / Bi
        denom = Bi * (1 - q**Bi)
        for day in (1, 7, 20):
            assert policy.pmf(day) == pytest.approx(q ** (Bi - day) / denom)

    def test_pmf_is_karlin_pmf(self):
        """One copy of Theorem 1's buy-day density."""
        for Bi in (1, 2, 7, 120):
            assert np.array_equal(DiscreteSkiRentalRA(Bi)._pmf, karlin_pmf(Bi))

    def test_pmf_increasing_toward_day_B(self):
        pmf = DiscreteSkiRentalRA(30)._pmf
        assert np.all(np.diff(pmf) > 0)

    def test_exact_discrete_ratio(self):
        for Bi in (5, 50, 500):
            policy = DiscreteSkiRentalRA(Bi)
            model = ConflictModel(ConflictKind.REQUESTOR_ABORTS, float(Bi), 2)
            result = competitive_ratio(policy, model)
            assert result.ratio == pytest.approx(
                policy.competitive_ratio, rel=1e-6
            )

    def test_ratio_converges_to_e_over_em1(self):
        assert DiscreteSkiRentalRA(5000).competitive_ratio == pytest.approx(
            math.e / (math.e - 1), rel=1e-3
        )

    def test_sample_range(self, rng):
        policy = DiscreteSkiRentalRA(10)
        samples = policy.sample_many(5000, rng)
        assert samples.min() >= 0
        assert samples.max() <= 9
        assert np.allclose(samples, np.round(samples))

    def test_invalid_B(self):
        with pytest.raises(InvalidParameterError):
            DiscreteSkiRentalRA(0)
        with pytest.raises(InvalidParameterError):
            DiscreteSkiRentalRA(2.5)  # type: ignore[arg-type]
        with pytest.raises(InvalidParameterError):
            DiscreteSkiRentalRA(True)  # type: ignore[arg-type]


class TestFactory:
    def test_default_exponential(self):
        assert isinstance(optimal_requestor_aborts(B), ExponentialRA)

    def test_deterministic(self):
        assert isinstance(
            optimal_requestor_aborts(B, deterministic=True), DeterministicRA
        )

    def test_discrete(self):
        assert isinstance(
            optimal_requestor_aborts(100.0, discrete=True), DiscreteSkiRentalRA
        )

    def test_discrete_needs_integer_B(self):
        with pytest.raises(InvalidParameterError):
            optimal_requestor_aborts(100.5, discrete=True)

    def test_discrete_k2_only(self):
        with pytest.raises(InvalidParameterError):
            optimal_requestor_aborts(100.0, k=3, discrete=True)

    def test_constrained_in_regime(self):
        assert isinstance(optimal_requestor_aborts(B, mu=10.0), ChainRA)

    def test_constrained_out_of_regime_falls_back(self):
        assert isinstance(optimal_requestor_aborts(B, mu=B), ExponentialRA)

    def test_chain(self):
        policy = optimal_requestor_aborts(B, k=5, mu=5.0)
        assert isinstance(policy, ChainRA)
        assert policy.k == 5


class TestRWvsRAComparison:
    """Section 5.3's comparison: RA beats RW at k=2, RW wins for k>=3."""

    def test_k2_ra_beats_rw(self):
        from repro.core.ratios import rand_ra_ratio, rand_rw_optimal_ratio

        assert rand_ra_ratio(2) < rand_rw_optimal_ratio(2)

    @pytest.mark.parametrize("k", [3, 4, 10])
    def test_k3plus_rw_beats_ra(self, k):
        from repro.core.ratios import rand_ra_ratio, rand_rw_optimal_ratio

        assert rand_rw_optimal_ratio(k) < rand_ra_ratio(k)

    def test_constrained_k2_ra_beats_rw(self):
        from repro.core.ratios import constrained_ra_ratio, constrained_rw_ratio

        mu = 10.0
        assert constrained_ra_ratio(B, mu, 2) < constrained_rw_ratio(B, mu, 2)
