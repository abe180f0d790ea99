"""Latency accounting: histogram quantiles vs the sorted-array truth.

``BENCH_serve.json``'s p50/p99 come from
:meth:`repro.obs.metrics.Histogram.quantile`, a fixed-edge read.  The
contract pinned here: the nearest-rank sample of the raw observation
stream always lies inside the bucket whose upper edge the histogram
reports (clamped at the underflow/overflow boundaries) — i.e. the
histogram never under-reports a latency by more than one bucket's
resolution, on any distribution, including the adversarial shapes
(all-equal, bimodal, everything-in-overflow) that break naive
implementations.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.obs.metrics import Histogram
from repro.serve.service import LATENCY_EDGES_US

EDGES = (1.0, 10.0, 100.0, 1_000.0)


def nearest_rank(values: list[float], q: float) -> float:
    """The exact reference: rank ``ceil(q * n)`` of the sorted stream."""
    return sorted(values)[max(1, math.ceil(len(values) * q)) - 1]


def filled(values, edges=EDGES) -> Histogram:
    h = Histogram("t", edges)
    for v in values:
        h.observe(v)
    return h


def assert_bracketed(values: list[float], q: float, edges=EDGES) -> None:
    """The histogram answer's bucket must contain the true quantile."""
    got = filled(values, edges).quantile(q)
    ref = nearest_rank(values, q)
    if ref < edges[0]:
        assert got == edges[0]
    elif ref >= edges[-1]:
        assert got == edges[-1]
    else:
        i = bisect.bisect_right(edges, ref) - 1
        assert got == edges[i + 1]


observations = st.lists(
    st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
    min_size=1,
    max_size=300,
)
quantiles = st.floats(min_value=0.001, max_value=1.0)


class TestQuantileProperty:
    @given(observations, quantiles)
    @settings(max_examples=400)
    def test_bracket_invariant(self, values, q):
        assert_bracketed(values, q)

    @given(observations)
    @settings(max_examples=100)
    def test_monotone_in_q(self, values):
        h = filled(values)
        qs = [0.1, 0.25, 0.5, 0.9, 0.99, 1.0]
        reads = [h.quantile(q) for q in qs]
        assert reads == sorted(reads)


class TestAdversarialDistributions:
    def test_all_equal(self):
        """Every sample in one bucket: every quantile is its edge."""
        values = [42.0] * 257
        h = filled(values)
        for q in (0.01, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 100.0
            assert_bracketed(values, q)

    def test_bimodal(self):
        """Half fast, half slow: p50 reads the fast mode, p99 the slow."""
        values = [2.0] * 500 + [500.0] * 500
        h = filled(values)
        assert h.quantile(0.50) == 10.0
        assert h.quantile(0.99) == 1_000.0
        for q in (0.25, 0.5, 0.75, 0.99):
            assert_bracketed(values, q)

    def test_single_bucket_overflow(self):
        """Everything at or beyond the last edge clamps to it — the
        read is honest about having lost resolution, not silently NaN
        or out of range."""
        values = [1_000.0, 2_000.0, 99_999.0]
        h = filled(values)
        assert h.overflow == 3
        for q in (0.01, 0.5, 1.0):
            assert h.quantile(q) == 1_000.0

    def test_all_underflow_clamps_to_first_edge(self):
        h = filled([0.0, 0.5, 0.25])
        assert h.underflow == 3
        assert h.quantile(0.99) == 1.0

    def test_underflow_then_real_mass(self):
        values = [0.1] * 50 + [50.0] * 50
        h = filled(values)
        assert h.quantile(0.25) == 1.0
        assert h.quantile(0.75) == 100.0


class TestQuantileEdgeCases:
    def test_empty_histogram_is_nan(self):
        assert math.isnan(Histogram("t", EDGES).quantile(0.5))

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0000001, 2.0])
    def test_out_of_domain_q_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="quantile"):
            Histogram("t", EDGES).quantile(bad)

    def test_q_one_is_the_max_bucket(self):
        h = filled([2.0, 2.0, 500.0])
        assert h.quantile(1.0) == 1_000.0

    def test_service_edges_cover_typical_decisions(self):
        """The serve layer's fixed edges bracket sub-millisecond
        decisions without under- or overflow."""
        h = filled([3.0, 17.0, 80.0, 450.0], LATENCY_EDGES_US)
        assert h.overflow == 0 and h.underflow == 0
        assert h.quantile(0.5) in LATENCY_EDGES_US

    def test_service_edges_read_within_one_sixteenth(self):
        """16 log-linear sub-buckets per power of two: on a log-uniform
        sample over the whole edge range, every quantile read is at
        most 1/16 above the nearest-rank sample, and never below it."""
        values = list(2.0 ** np.random.default_rng(2018).uniform(0.0, 17.0, 4000))
        h = filled(values, LATENCY_EDGES_US)
        for q in np.arange(1, 1001) / 1000:
            ref = nearest_rank(values, q)
            assert ref < h.quantile(q) <= ref * (1 + 1 / 16)
        for q in (0.01, 0.5, 0.99, 1.0):
            assert_bracketed(values, q, LATENCY_EDGES_US)
