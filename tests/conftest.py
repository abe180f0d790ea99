"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core._continuous import ContinuousDelayPolicy
from repro.core.model import ConflictKind, ConflictModel
from repro.htm import conflict_policy


@pytest.fixture(autouse=True)
def _no_result_cache(monkeypatch):
    """Keep the CLI's result cache off by default in tests.

    Call-count assertions (retries, resume, keep-going) count actual
    runner invocations; a warm cache would satisfy them without
    running anything.  Cache-specific tests opt back in by deleting
    the variable or passing --cache explicitly.
    """
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def grid_log(monkeypatch) -> list:
    """Every inverse-CDF grid built while the test runs, as
    ``(family, B, k)``: a build is a ``_cdf_grid`` call on a policy
    that has no grid yet.  The HTM policies' table of live
    distributions starts empty, so no grid an earlier test left alive
    is reused."""
    conflict_policy._LIVE_DISTS.clear()
    built = []
    build = ContinuousDelayPolicy._cdf_grid

    def logged(self):
        if getattr(self, "_grid_cache", None) is None:
            built.append((type(self).__name__, self.B, self.k))
        return build(self)

    monkeypatch.setattr(ContinuousDelayPolicy, "_cdf_grid", logged)
    return built


@pytest.fixture
def rw_model() -> ConflictModel:
    return ConflictModel(ConflictKind.REQUESTOR_WINS, 100.0, 2)


@pytest.fixture
def ra_model() -> ConflictModel:
    return ConflictModel(ConflictKind.REQUESTOR_ABORTS, 100.0, 2)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.jsonl from the current code "
        "(review the diff like any source change)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running integration test"
    )
