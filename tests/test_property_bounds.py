"""Property tests: sampled/expected costs never beat the theorem bounds.

Hypothesis drives the adversary (remaining time ``D``), the instance
(``B``, ``k``), and — for the randomized policies — the sampling seed,
checking the paper's competitive-ratio guarantees hold *pointwise* for
deterministic policies and *in expectation* for randomized ones:

* Theorem 4 (DET-RW):  ``cost <= (2 + 1/(k-1)) * OPT`` for every D.
* DET-RA:              ``cost <= k * OPT`` for every D.
* Theorem 5 (RRW):     ``E[cost] <= 2 * OPT`` (uniform policy, k = 2).
* Theorems 1/3 (RRA):  ``E[cost] <= E/(E-1) * OPT``, ``E = e^{1/(k-1)}``
                       (``e/(e-1)`` at k = 2).
* Theorem 1 (ski rental): exact expectation of the Karlin strategy is
  within the exact discrete ratio ``1/(1 - (1-1/B)^B)`` of OPT.

Expectations are checked two ways: exactly via the trapezoid quadrature
in :mod:`repro.core.verify` (tight tolerance), and empirically via
seeded Monte Carlo with a 6-standard-error slack so the test is
deterministic (``derandomize=True``) yet statistically sound.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import ConflictKind, ConflictModel
from repro.core.ratios import ra_chain_E
from repro.core.requestor_aborts import DeterministicRA, ExponentialRA
from repro.core.requestor_wins import DeterministicRW, UniformRW
from repro.core.ski_rental import (
    SkiRental,
    deterministic_buy_day,
    discrete_competitive_ratio,
    expected_cost_randomized,
    karlin_pmf,
    optimal_offline_cost,
)
from repro.core.verify import expected_cost

# Every test is derandomized: hypothesis replays a fixed example stream,
# so failures reproduce and CI output is stable.  deadline=None because
# the quadrature examples are slower than the 200 ms default.
COMMON = settings(derandomize=True, deadline=None, max_examples=60)

# Quadrature resolution in core.verify bounds the systematic error of
# the "exact" expectation checks; 1e-3 relative is far above it.
QUAD_RTOL = 1e-3

costs_B = st.floats(min_value=0.5, max_value=500.0)
chains_k = st.integers(min_value=2, max_value=8)
remaining_D = st.floats(min_value=0.0, max_value=2000.0)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _mc_bound_holds(
    policy, model: ConflictModel, D: float, seed: int, ratio: float
) -> None:
    """Seeded Monte Carlo: mean sampled cost <= ratio * OPT + 6 SEM."""
    rng = np.random.default_rng(seed)
    samples = policy.sample_many(4000, rng=rng)
    costs = model.cost_vec(samples, D)
    sem = float(costs.std(ddof=1)) / math.sqrt(len(costs))
    bound = ratio * model.opt(D)
    assert float(costs.mean()) <= bound + 6.0 * sem + 1e-9


class TestDeterministicPointwise:
    @COMMON
    @given(B=costs_B, k=chains_k, D=remaining_D)
    def test_det_rw_never_exceeds_theorem4(self, B, k, D):
        policy = DeterministicRW(B, k)
        model = policy.model()
        bound = 2.0 + 1.0 / (k - 1)
        assert policy.competitive_ratio == pytest.approx(bound)
        assert model.ratio(policy.delay, D) <= bound * (1.0 + 1e-12)

    @COMMON
    @given(B=costs_B, k=chains_k, D=remaining_D)
    def test_det_ra_never_exceeds_k(self, B, k, D):
        policy = DeterministicRA(B, k)
        model = policy.model()
        assert policy.competitive_ratio == pytest.approx(float(k))
        assert model.ratio(policy.delay, D) <= k * (1.0 + 1e-12)


class TestRandomizedExpectation:
    @COMMON
    @given(B=costs_B, D=remaining_D, seed=seeds)
    def test_rrw_uniform_is_2_competitive(self, B, D, seed):
        policy = UniformRW(B, 2)
        model = policy.model()
        assert policy.competitive_ratio == 2.0
        assert expected_cost(policy, model, D) <= 2.0 * model.opt(D) * (
            1.0 + QUAD_RTOL
        ) + 1e-9
        _mc_bound_holds(policy, model, D, seed, 2.0)

    @COMMON
    @given(B=costs_B, k=chains_k, D=remaining_D, seed=seeds)
    def test_rra_exponential_matches_chain_ratio(self, B, k, D, seed):
        policy = ExponentialRA(B, k)
        model = policy.model()
        E = ra_chain_E(k)
        bound = E / (E - 1.0)
        assert policy.competitive_ratio == pytest.approx(bound)
        assert expected_cost(policy, model, D) <= bound * model.opt(D) * (
            1.0 + QUAD_RTOL
        ) + 1e-9
        _mc_bound_holds(policy, model, D, seed, bound)

    def test_rra_k2_bound_is_e_over_e_minus_1(self):
        assert ExponentialRA(10.0, 2).competitive_ratio == pytest.approx(
            math.e / (math.e - 1.0)
        )


class TestSkiRental:
    @COMMON
    @given(B=st.integers(min_value=1, max_value=400), days=st.integers(0, 2000))
    def test_randomized_within_discrete_ratio(self, B, days):
        opt = optimal_offline_cost(B, days)
        bound = discrete_competitive_ratio(B) * opt
        assert expected_cost_randomized(B, days) <= bound + 1e-9

    @COMMON
    @given(B=st.integers(min_value=1, max_value=400), days=st.integers(0, 2000))
    def test_deterministic_rule_is_2_competitive(self, B, days):
        inst = SkiRental(B)
        cost = inst.cost(deterministic_buy_day(B), days)
        # rent B-1 days then buy: cost <= 2B - 1 <= 2 OPT whenever OPT = B,
        # and equals OPT on short tours.
        assert cost <= 2 * inst.offline_cost(days) or inst.offline_cost(days) == 0

    @COMMON
    @given(B=st.integers(min_value=1, max_value=400))
    def test_karlin_pmf_normalizes(self, B):
        pmf = karlin_pmf(B)
        assert pmf.shape == (B,)
        assert np.all(pmf > 0.0)
        assert float(pmf.sum()) == pytest.approx(1.0)

    @COMMON
    @given(B=st.integers(min_value=2, max_value=400))
    def test_discrete_ratio_below_continuous_limit(self, B):
        assert 1.0 < discrete_competitive_ratio(B) < math.e / (math.e - 1.0)

    def test_kind_sanity(self):
        assert UniformRW(5.0).model().kind is ConflictKind.REQUESTOR_WINS
        assert ExponentialRA(5.0).model().kind is ConflictKind.REQUESTOR_ABORTS
