"""Tests for the online statistics accumulators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim.stats import Welford


class TestWelford:
    def test_empty(self):
        acc = Welford()
        assert acc.n == 0
        assert math.isnan(acc.mean)
        assert math.isnan(acc.variance)

    def test_single(self):
        acc = Welford()
        acc.add(4.0)
        assert acc.mean == 4.0
        assert math.isnan(acc.variance)
        assert acc.min == acc.max == 4.0

    def test_matches_numpy(self, rng):
        data = rng.normal(10.0, 3.0, size=1000)
        acc = Welford()
        for x in data:
            acc.add(float(x))
        assert acc.mean == pytest.approx(data.mean())
        assert acc.variance == pytest.approx(data.var(ddof=1))
        assert acc.min == data.min()
        assert acc.max == data.max()

    def test_add_many_matches_scalar(self, rng):
        data = rng.random(500) * 7
        a, b = Welford(), Welford()
        for x in data:
            a.add(float(x))
        b.add_many(data[:200])
        b.add_many(data[200:])
        assert b.mean == pytest.approx(a.mean)
        assert b.variance == pytest.approx(a.variance)
        assert b.n == a.n

    def test_add_many_empty(self):
        acc = Welford()
        acc.add_many(np.asarray([]))
        assert acc.n == 0

    def test_merge(self, rng):
        data = rng.random(400)
        a, b = Welford(), Welford()
        a.add_many(data[:150])
        b.add_many(data[150:])
        merged = a.merge(b)
        assert merged.n == 400
        assert merged.mean == pytest.approx(data.mean())
        assert merged.variance == pytest.approx(data.var(ddof=1))

    def test_merge_with_empty(self):
        a = Welford()
        a.add(1.0)
        merged = a.merge(Welford())
        assert merged.n == 1
        assert merged.mean == 1.0

    def test_sem(self):
        acc = Welford()
        acc.add_many(np.asarray([1.0, 2.0, 3.0, 4.0]))
        assert acc.sem == pytest.approx(acc.std / 2.0)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7, 16])
    def test_merge_all_matches_single_stream(self, rng, n_shards):
        """Sharded accumulation == single-stream accumulation to 1e-12.

        This is the contract intra-experiment sharding rests on: a
        trial stream split across shards and folded back with
        merge_all must agree with running every trial through one
        accumulator.
        """
        data = rng.normal(37.0, 5.0, size=1009)  # prime: uneven shards
        single = Welford()
        single.add_many(data)
        shards = []
        for chunk in np.array_split(data, n_shards):
            acc = Welford()
            acc.add_many(chunk)
            shards.append(acc)
        merged = Welford.merge_all(shards)
        assert merged.n == single.n
        assert merged.mean == pytest.approx(single.mean, abs=1e-12)
        assert merged.sem == pytest.approx(single.sem, abs=1e-12)
        assert merged.variance == pytest.approx(single.variance, rel=1e-12)
        assert merged.min == single.min
        assert merged.max == single.max

    def test_merge_all_empty_and_partial(self):
        assert Welford.merge_all([]).n == 0
        a = Welford()
        a.add(2.0)
        merged = Welford.merge_all([Welford(), a, Welford()])
        assert merged.n == 1
        assert merged.mean == 2.0

    def test_merge_is_left_fold_order(self, rng):
        """merge_all folds left-to-right: same shard list, same bits."""
        chunks = [rng.random(50) for _ in range(4)]
        shards = []
        for chunk in chunks:
            acc = Welford()
            acc.add_many(chunk)
            shards.append(acc)
        once = Welford.merge_all(shards)
        again = Welford.merge_all(shards)
        assert once.mean == again.mean  # bit-equal, not approx
        assert once.variance == again.variance

    def test_numerical_stability_large_offset(self):
        """Huge common offset — naive sum-of-squares would cancel."""
        acc = Welford()
        base = 1e12
        acc.add_many(base + np.asarray([1.0, 2.0, 3.0]))
        assert acc.variance == pytest.approx(1.0)
