"""Tests for the numeric verification machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import ratios
from repro.core.model import ConflictKind, ConflictModel
from repro.core.policy import FixedDelayPolicy, ImmediateAbortPolicy
from repro.core.requestor_aborts import (
    ChainRA,
    DeterministicRA,
    DiscreteSkiRentalRA,
    ExponentialRA,
    optimal_requestor_aborts,
)
from repro.core.requestor_wins import (
    DeterministicRW,
    MeanConstrainedRW,
    PolynomialRW,
    UniformRW,
    optimal_requestor_wins,
)
from repro.core.verify import (
    abort_probability,
    competitive_ratio,
    constrained_competitive_ratio,
    expected_cost,
    expected_cost_curve,
    simulate_costs,
    _upper_concave_envelope,
)
from repro.errors import InvalidParameterError

B = 100.0
RW = ConflictModel(ConflictKind.REQUESTOR_WINS, B, 2)
RA = ConflictModel(ConflictKind.REQUESTOR_ABORTS, B, 2)


class TestExpectedCost:
    def test_deterministic_policy_exact(self):
        policy = FixedDelayPolicy(30.0)
        assert expected_cost(policy, RW, 20.0) == pytest.approx(20.0)
        assert expected_cost(policy, RW, 50.0) == pytest.approx(2 * 30 + B)

    def test_immediate_abort(self):
        policy = ImmediateAbortPolicy()
        assert expected_cost(policy, RW, 50.0) == pytest.approx(B)
        assert expected_cost(policy, RW, 0.0) == pytest.approx(0.0)

    def test_uniform_closed_form(self):
        """Uniform on [0,B]: E[cost | D=y] = 2y exactly (Theorem 5)."""
        policy = UniformRW(B, 2)
        ys = np.asarray([1.0, 25.0, 60.0, 99.0])
        assert np.allclose(expected_cost_curve(policy, RW, ys), 2 * ys, rtol=1e-3)

    def test_beyond_support_certain_abort(self):
        policy = UniformRW(B, 2)
        # D far beyond the cap: always abort, E = E[2x + B] = 2B
        assert expected_cost(policy, RW, 10 * B) == pytest.approx(2 * B, rel=1e-3)

    def test_discrete_policy_matches_manual_sum(self):
        policy = DiscreteSkiRentalRA(10)
        d = 4.0
        manual = 0.0
        for day in range(1, 11):
            x = day - 1
            cost = d if d <= x else x + 10.0
            manual += policy.pmf(day) * cost
        assert expected_cost(policy, ConflictModel(
            ConflictKind.REQUESTOR_ABORTS, 10.0, 2
        ), d) == pytest.approx(manual)

    def test_negative_remaining_rejected(self):
        with pytest.raises(InvalidParameterError):
            expected_cost(UniformRW(B), RW, -1.0)


class TestExpectedAbortCost:
    """Past the support every draw aborts: ``expected_cost`` there is
    the certain-abort cost ``E_x[abort cost(x)]``."""

    def test_uniform(self):
        # E[2x + B] over uniform [0, B] = 2B
        assert expected_cost(UniformRW(B, 2), RW, 10 * B) == pytest.approx(
            2 * B, rel=1e-3
        )

    def test_exponential_ra(self):
        # E[x + B] with E[x] = B/(e-1): total = B e/(e-1)
        assert expected_cost(ExponentialRA(B, 2), RA, 10 * B) == pytest.approx(
            B * math.e / (math.e - 1), rel=1e-3
        )

    def test_deterministic(self):
        assert expected_cost(FixedDelayPolicy(10.0), RW, 10 * B) == pytest.approx(
            2 * 10 + B
        )


class TestCompetitiveRatio:
    def test_never_positive_infinite(self):
        result = competitive_ratio(UniformRW(B, 2), RW)
        assert math.isfinite(result.ratio)
        assert result.ratio >= 1.0

    def test_immediate_abort_ratio_unbounded_ish(self):
        """NO_DELAY pays B even for D -> 0, so its grid ratio is huge."""
        result = competitive_ratio(ImmediateAbortPolicy(), RW)
        assert result.ratio > 50.0

    def test_fixed_tiny_delay_bad(self):
        result = competitive_ratio(FixedDelayPolicy(1.0), RW)
        assert result.ratio > 2.0

    def test_worst_remaining_in_grid(self):
        result = competitive_ratio(FixedDelayPolicy(B), RW)
        # Theorem 4: worst case just above the abort point (OPT = B)
        assert result.ratio == pytest.approx(3.0, rel=1e-3)
        assert result.worst_remaining >= B


class TestConcaveEnvelope:
    def test_linear_function_unchanged(self):
        xs = np.linspace(0, 10, 50)
        ys = 2 * xs + 1
        assert _upper_concave_envelope(xs, ys, 5.0) == pytest.approx(11.0)

    def test_v_shape_bridged(self):
        xs = np.asarray([0.0, 5.0, 10.0])
        ys = np.asarray([10.0, 0.0, 10.0])
        # envelope is the chord from (0,10) to (10,10)
        assert _upper_concave_envelope(xs, ys, 5.0) == pytest.approx(10.0)

    def test_outside_range_clamps(self):
        xs = np.asarray([1.0, 2.0])
        ys = np.asarray([3.0, 7.0])
        assert _upper_concave_envelope(xs, ys, 0.0) == 3.0
        assert _upper_concave_envelope(xs, ys, 5.0) == 7.0

    def test_duplicate_x_keeps_max(self):
        xs = np.asarray([1.0, 1.0, 2.0])
        ys = np.asarray([3.0, 9.0, 1.0])
        assert _upper_concave_envelope(xs, ys, 1.0) == pytest.approx(9.0)


class TestConstrainedRatio:
    def test_constrained_leq_unconstrained(self):
        policy = UniformRW(B, 2)
        uncon = competitive_ratio(policy, RW).ratio
        for mu in (5.0, 50.0, 200.0):
            con = constrained_competitive_ratio(policy, RW, mu).ratio
            assert con <= uncon + 1e-6

    def test_requires_positive_mu(self):
        with pytest.raises(InvalidParameterError):
            constrained_competitive_ratio(UniformRW(B), RW, 0.0)

    def test_matches_linear_theory(self):
        policy = MeanConstrainedRW(B, 10.0)
        result = constrained_competitive_ratio(policy, RW, 10.0)
        assert result.ratio == pytest.approx(policy.competitive_ratio, rel=2e-3)


class TestSimulateCosts:
    def test_scalar_with_n(self, rng):
        costs = simulate_costs(UniformRW(B, 2), RW, 50.0, rng, n=10_000)
        assert costs.shape == (10_000,)
        # E[cost | D=50] = 100 (Theorem 5 equalization)
        assert costs.mean() == pytest.approx(100.0, rel=0.05)

    def test_array_remaining(self, rng):
        d = rng.random(5000) * B
        costs = simulate_costs(UniformRW(B, 2), RW, d, rng)
        assert costs.shape == d.shape
        assert np.all(costs >= 0)

    def test_scalar_without_n_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            simulate_costs(UniformRW(B, 2), RW, 50.0, rng)

    def test_monte_carlo_matches_quadrature(self, rng):
        policy = MeanConstrainedRW(B, 10.0)
        d = 40.0
        mc = simulate_costs(policy, RW, d, rng, n=200_000).mean()
        assert mc == pytest.approx(expected_cost(policy, RW, d), rel=0.02)


class TestAbortProbability:
    def test_uniform(self):
        assert abort_probability(UniformRW(B, 2), RW, B / 2) == pytest.approx(0.5)

    def test_zero_remaining(self):
        assert abort_probability(UniformRW(B, 2), RW, 0.0) == pytest.approx(0.0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            abort_probability(UniformRW(B, 2), RW, -1.0)


def _theorem_policies(B: float, k: int) -> list:
    """``(policy, mu)`` for every theorem's policy at ``(B, k)``, the
    mean-constrained ones at half their regime threshold."""
    mu_rw = 0.5 * B * ratios.rw_mean_regime_threshold(k)
    mu_ra = 0.5 * B * ratios.ra_mean_regime_threshold(k)
    rw_mu = MeanConstrainedRW(B, mu_rw) if k == 2 else PolynomialRW(B, k, mu_rw)
    return [
        (DeterministicRW(B, k), None),
        (UniformRW(B, k) if k == 2 else PolynomialRW(B, k), None),
        (ExponentialRA(B, k), None),
        (DeterministicRA(B, k), None),
        (rw_mu, mu_rw),
        (ChainRA(B, k, mu_ra), mu_ra),
    ]


class TestEdgeCells:
    """The single copy of each density, closed form and quadrature at
    the edges of its domain."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_edge_cell_k2_B1(self, k):
        """The smallest cells (B = 1; k = 2, and k = 3 for Theorem 6's
        polynomial family): each policy's numeric ratio matches its own
        closed form to grid accuracy."""
        for policy, mu in _theorem_policies(1.0, k):
            model = policy.model()
            if mu is None:
                numeric = competitive_ratio(policy, model).ratio
            else:
                numeric = constrained_competitive_ratio(policy, model, mu).ratio
            assert numeric == pytest.approx(policy.competitive_ratio, rel=1.2e-4)
            # D = 0 costs nothing; past the support every draw aborts
            curve = expected_cost_curve(policy, model, np.asarray([0.0, 4.0]))
            assert curve[0] == 0.0 and np.isfinite(curve[1])
        ski = DiscreteSkiRentalRA(1)
        assert competitive_ratio(ski, ski.model()).ratio == ski.competitive_ratio == 1.0

    def test_degenerate_mu(self):
        """mu -> 0 collapses the constrained ratios to 1."""
        for mu in (0.0, 1e-300, 1e-12):
            for k in (2, 3):
                assert ratios.constrained_rw_ratio(100.0, mu, k) == pytest.approx(
                    1.0, rel=0.0, abs=1e-12
                )
                assert ratios.constrained_ra_ratio(100.0, mu, k) == pytest.approx(
                    1.0, rel=0.0, abs=1e-12
                )
        policy = optimal_requestor_wins(100.0, 2, 1e-12)
        assert isinstance(policy, MeanConstrainedRW)
        assert policy.competitive_ratio == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("B", [1.0, 64.0])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_threshold_takes_unconstrained_branch(self, B, k):
        """At mu/B exactly on a regime threshold the factories' strict
        inequality picks the unconstrained optimum (B a power of two,
        so mu/B is the threshold bit for bit)."""
        rw = optimal_requestor_wins(B, k, B * ratios.rw_mean_regime_threshold(k))
        assert rw.name == "RRW"
        assert rw.competitive_ratio == ratios.rand_rw_optimal_ratio(k)
        ra = optimal_requestor_aborts(B, k, B * ratios.ra_mean_regime_threshold(k))
        assert ra.name == "RRA"
        assert ra.competitive_ratio == ratios.rand_ra_ratio(k)

    def test_empty_remaining_row(self):
        empty = np.asarray([], dtype=float)
        policies = [p for p, _ in _theorem_policies(100.0, 2)]
        policies += [PolynomialRW(100.0, 3), DiscreteSkiRentalRA(10)]
        for policy in policies:
            assert expected_cost_curve(policy, policy.model(), empty).shape == (0,)

    def test_det_custom_x0(self):
        """A point mass at x0 (immediate abort, mid-support) costs
        exactly the model's cost at x0, under either resolution."""
        d = np.asarray([0.0, 50.0, 200.0, 500.0])
        for kind in ConflictKind:
            model = ConflictModel(kind, 200.0, 2)
            for x0 in (0.0, 37.5):
                got = expected_cost_curve(FixedDelayPolicy(x0), model, d)
                assert got.tolist() == [model.cost(x0, float(dv)) for dv in d]

    def test_det_ra_reference(self):
        """DeterministicRA waits B/(k-1) and costs the model's cost there."""
        policy = DeterministicRA(50.0, 3)
        model = policy.model()
        d = np.asarray([1.0, 20.0, 25.0, 30.0, 100.0])
        got = expected_cost_curve(policy, model, d)
        assert got.tolist() == [model.cost(25.0, float(dv)) for dv in d]
