"""Common interface for transaction-length distributions.

Every distribution is parametrized by its mean µ (the quantity the
constrained policies consume), samples positive lengths, and is fully
vectorized — one :meth:`LengthDistribution.sample` call per experiment
batch, per the HPC guides.
"""

from __future__ import annotations

import abc
import math
from typing import Callable

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["LengthDistribution", "DISTRIBUTION_REGISTRY", "get_distribution"]


class LengthDistribution(abc.ABC):
    """A distribution of (positive) transaction running times."""

    #: Display name used in experiment tables.
    name: str = "lengths"

    @abc.abstractmethod
    def sample(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Draw ``n`` lengths as a float array (all values > 0)."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """The distribution mean µ (exact where closed-form)."""

    def sample_one(self, rng: np.random.Generator | int | None = None) -> float:
        """Draw a single length."""
        return float(self.sample(1, rng)[0])

    def describe(self) -> str:
        return f"{self.name} (mean {self.mean:g})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"

    @staticmethod
    def _check_mean(mu: float) -> float:
        if not (isinstance(mu, (int, float)) and math.isfinite(mu) and mu > 0):
            raise InvalidParameterError(f"mean must be finite and positive, got {mu!r}")
        return float(mu)


#: Registry of the Section 8.1 distributions by table name; populated by
#: :mod:`repro.distributions.standard`.
DISTRIBUTION_REGISTRY: dict[str, Callable[[float], "LengthDistribution"]] = {}


def register(name: str):
    """Class decorator adding a ``mean -> distribution`` factory to the
    registry under ``name``."""

    def deco(cls):
        DISTRIBUTION_REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def get_distribution(name: str, mean: float) -> "LengthDistribution":
    """Instantiate a registered distribution with the given mean."""
    try:
        factory = DISTRIBUTION_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(DISTRIBUTION_REGISTRY))
        raise InvalidParameterError(
            f"unknown distribution {name!r}; known: {known}"
        ) from None
    return factory(mean)
