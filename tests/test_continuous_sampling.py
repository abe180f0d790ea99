"""Bit-identity of the continuous policies' sampling paths and CDF grids.

``sample()`` and ``sample_many()`` feed generator draws straight into
the unchecked quantile function, while ``ppf`` checks every quantile a
caller passes.  All three must agree to the bit on the same uniforms:
the decision service's log digests, and every seeded experiment row,
depend on it.  The closed forms must keep ``np.power``/``np.log1p``: on
a Python float ``x ** y`` rounds differently from ``np.power(x, y)``
in a few percent of draws, which the ``PolynomialRW`` cases catch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core._continuous import GRID_POINTS, ContinuousDelayPolicy
from repro.core.ratios import LN4_MINUS_1
from repro.core.requestor_aborts import ChainRA, ExponentialRA, MeanConstrainedRA
from repro.core.requestor_wins import MeanConstrainedRW, PolynomialRW, UniformRW
from repro.errors import InvalidParameterError

B = 1000.0
N = 2000

POLICIES = {
    "UniformRW-k2": lambda: UniformRW(B, 2),
    "UniformRW-k3": lambda: UniformRW(777.0, 3),
    "PolynomialRW-k3": lambda: PolynomialRW(B, 3),
    "PolynomialRW-k4": lambda: PolynomialRW(B, 4),
    "PolynomialRW-k6": lambda: PolynomialRW(B, 6),
    "PolynomialRW-k3-mu": lambda: PolynomialRW(B, 3, 50.0),
    "PolynomialRW-k5-mu": lambda: PolynomialRW(B, 5, 40.0),
    "MeanConstrainedRW": lambda: MeanConstrainedRW(B, 50.0),
    "RRA-k2": lambda: ExponentialRA(B, 2),
    "RRA-k4": lambda: ExponentialRA(900.0, 4),
    "ChainRA-k3": lambda: ChainRA(B, 3, 50.0),
}


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.fixture(params=sorted(POLICIES), ids=str)
def policy(request):
    return POLICIES[request.param]()


def test_sample_sample_many_and_ppf_agree_bitwise(policy):
    one_by_one = np.random.default_rng(11)
    batched = np.random.default_rng(11)
    uniforms = np.random.default_rng(11).random(N)

    singles = _bits([policy.sample(one_by_one) for _ in range(N)])
    batch = _bits(policy.sample_many(N, batched))
    from_ppf = _bits([float(policy.ppf(u)) for u in uniforms])
    from_ppf_batch = _bits(policy.ppf(uniforms))

    assert np.array_equal(singles, batch)
    assert np.array_equal(singles, from_ppf)
    assert np.array_equal(batch, from_ppf_batch)


@pytest.mark.parametrize("q", [-0.1, 1.1])
def test_ppf_still_rejects_out_of_range_quantiles(policy, q):
    with pytest.raises(InvalidParameterError, match=r"\[0, 1\]"):
        policy.ppf(q)
    with pytest.raises(InvalidParameterError, match=r"\[0, 1\]"):
        policy.ppf(np.array([0.5, q]))


# -- the inverse-CDF grid ------------------------------------------------
#
# ``cdf_vec`` clamps to the support around each family's ``_cdf_inside``,
# and ``_cdf_grid`` calls ``_cdf_inside`` on the grid directly, taking
# the running max only when the grid dips.  The references below are
# the formulas as they stood before that split (clip, evaluate, two
# nested ``np.where``); every grid and CDF value must match them to the
# byte, or the decision logs and seeded rows would move.


def _old_log_rw(p, x):
    x = np.asarray(x, dtype=float)
    clipped = np.clip(x, 0.0, p.B)
    raw = ((p.B + clipped) * np.log1p(clipped / p.B) - clipped) / (p.B * LN4_MINUS_1)
    return np.where(x >= p.B, 1.0, np.where(x <= 0.0, 0.0, raw))


def _old_poly_rw(p, x):
    x = np.asarray(x, dtype=float)
    clipped = np.clip(x, p._lo, p._hi)
    ratio_pow = np.power(1.0 + clipped / p.B, p.k - 1)
    if p.constrained:
        raw = (ratio_pow - 1.0 - (p.k - 1) * clipped / p.B) / (p.R - 2.0)
    else:
        raw = (ratio_pow - 1.0) / (p.R - 1.0)
    return np.where(x >= p._hi, 1.0, np.where(x <= 0.0, 0.0, raw))


def _old_exp_ra(p, x):
    x = np.asarray(x, dtype=float)
    clipped = np.clip(x, 0.0, p._hi)
    raw = np.expm1(clipped / p.B) / (p.E - 1.0)
    return np.where(x >= p._hi, 1.0, np.where(x <= 0.0, 0.0, raw))


def _old_chain_ra(p, x):
    x = np.asarray(x, dtype=float)
    clipped = np.clip(x, 0.0, p._hi)
    raw = (p.k - 1) * (np.expm1(clipped / p.B) - clipped / p.B) / p.Z
    return np.where(x >= p._hi, 1.0, np.where(x <= 0.0, 0.0, raw))


def _old_grid(policy, old_cdf):
    xs = np.linspace(policy._lo, policy._hi, GRID_POINTS)
    fs = np.maximum.accumulate(old_cdf(policy, xs))
    fs[0], fs[-1] = 0.0, 1.0
    return xs, fs


GRID_BS = (1.0, 17.0, 953.0, 1e7)
#: where µ sits inside each regime, as a share of the regime threshold
MU_SHARES = (0.01, 0.3, 0.7, 0.99)


def _grid_policies(family: str, B: float):
    """Every (policy, old CDF) pair of one family at one B."""
    if family == "MeanConstrainedRW":
        return [(MeanConstrainedRW(B, s * 2.0 * LN4_MINUS_1 * B), _old_log_rw)
                for s in MU_SHARES]
    if family == "MeanConstrainedRA":
        cut = ChainRA.regime_threshold(2)
        return [(MeanConstrainedRA(B, s * cut * B), _old_chain_ra)
                for s in MU_SHARES]
    cls, old, cut = {
        "PolynomialRW": (PolynomialRW, _old_poly_rw, PolynomialRW.regime_threshold),
        "ChainRA": (ChainRA, _old_chain_ra, ChainRA.regime_threshold),
    }[family]
    return [(cls(B, k, s * cut(k) * B), old)
            for k in range(3, 10) for s in MU_SHARES]


@pytest.mark.parametrize("B", GRID_BS, ids=lambda b: f"B={b:g}")
@pytest.mark.parametrize(
    "family", ["MeanConstrainedRW", "PolynomialRW", "ChainRA", "MeanConstrainedRA"]
)
def test_grid_matches_the_pre_split_build_bytewise(family, B):
    for policy, old_cdf in _grid_policies(family, B):
        xs, fs = policy._cdf_grid()
        ref_xs, ref_fs = _old_grid(policy, old_cdf)
        assert xs.tobytes() == ref_xs.tobytes()
        assert fs.tobytes() == ref_fs.tobytes(), (family, B, policy.k, policy.mu)


CDF_CASES = {
    "MeanConstrainedRW": (lambda: MeanConstrainedRW(B, 50.0), _old_log_rw),
    "PolynomialRW-k4": (lambda: PolynomialRW(B, 4), _old_poly_rw),
    "PolynomialRW-k5-mu": (lambda: PolynomialRW(B, 5, 40.0), _old_poly_rw),
    "RRA-k3": (lambda: ExponentialRA(900.0, 3), _old_exp_ra),
    "ChainRA-k3": (lambda: ChainRA(B, 3, 50.0), _old_chain_ra),
    "MeanConstrainedRA": (lambda: MeanConstrainedRA(17.0, 2.0), _old_chain_ra),
}


@pytest.mark.parametrize("case", sorted(CDF_CASES), ids=str)
def test_cdf_vec_matches_the_pre_split_formula_bytewise(case):
    make, old_cdf = CDF_CASES[case]
    policy = make()
    lo, hi = policy.support
    points = [
        np.array([-np.inf, -1e9, -1.0, -0.0, lo, hi, hi * (1 + 1e-12), 2 * hi, np.inf]),
        np.linspace(-hi, 2 * hi, 301),
        np.linspace(lo, hi, 24).reshape(4, 6),
        hi * 0.37,  # Python floats: the scalar path has no out= buffer
        -5.0,
        3.0 * hi,
        np.asarray(hi * 0.61),  # 0-d arrays
        np.asarray(-0.5),
        np.asarray(hi),
    ]
    for x in points:
        got, want = policy.cdf_vec(x), old_cdf(policy, x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), x
    scalars = [policy.cdf(v) for v in (-1.0, hi * 0.2, hi, hi + 1.0)]
    assert scalars == [float(old_cdf(policy, np.asarray([v]))[0])
                       for v in (-1.0, hi * 0.2, hi, hi + 1.0)]


class _ToyCDF(ContinuousDelayPolicy):
    """A CDF on [0, 2] that dips (or turns NaN), unlike every real family,
    and misses 0 at the lower end, so the pinned endpoint matters."""

    def __init__(self, shape: str) -> None:
        self._lo, self._hi = 0.0, 2.0
        self.shape = shape

    def _cdf_inside(self, x):
        out = 0.9 * x / self._hi + 0.04 * np.cos(40.0 * x)
        if self.shape == "nan":
            out[out.size // 2] = np.nan
        return out


def _old_toy_cdf(policy, x):
    x = np.asarray(x, dtype=float)
    raw = policy._cdf_inside(np.atleast_1d(np.clip(x, 0.0, policy._hi)))
    return np.where(x >= policy._hi, 1.0, np.where(x <= 0.0, 0.0, raw))


@pytest.mark.parametrize("shape", ["dip", "nan"])
def test_a_dipping_grid_still_gets_the_running_max(shape):
    policy = _ToyCDF(shape)
    xs, fs = policy._cdf_grid()
    ref_xs, ref_fs = _old_grid(policy, _old_toy_cdf)
    assert not (policy._cdf_inside(xs)[1:] >= policy._cdf_inside(xs)[:-1]).all()
    assert xs.tobytes() == ref_xs.tobytes()
    assert fs.tobytes() == ref_fs.tobytes()
    if shape == "dip":
        assert fs[0] == 0.0 and fs[-1] == 1.0
        assert np.all(np.diff(fs) >= 0.0)  # np.interp's sorted xp
        draws = policy.ppf(np.linspace(0.0, 1.0, 101))
        assert np.all(np.diff(draws) >= 0.0)
        assert draws[0] == 0.0 and draws[-1] == 2.0
