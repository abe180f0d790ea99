"""Bit-identity of the continuous policies' three sampling paths.

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

from repro.core.requestor_aborts import ChainRA, ExponentialRA
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
