"""Delay-policy interface and the trivial deterministic policies.

A :class:`DelayPolicy` answers one question at conflict time: *for how
long do we delay the abort?*  Policies may be deterministic (a point
mass) or randomized (a PDF over the support).  Decisions are local,
immediate, and unchangeable — once ``x`` is drawn, the conflict runs its
course (the paper's HTM setting, Section 1 "Implications").

The interface is deliberately distribution-like (``pdf``/``cdf``/
``sample``) so that the numeric verification machinery in
:mod:`repro.core.verify` can integrate any policy against the cost model
without knowing its closed form.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import InvalidParameterError
from repro.rngutil import ensure_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import ConflictModel

__all__ = [
    "DelayPolicy",
    "DeterministicDelayPolicy",
    "FixedDelayPolicy",
    "ImmediateAbortPolicy",
    "NeverAbortPolicy",
]


class DelayPolicy(abc.ABC):
    """Abstract base class for grace-period (abort-delay) policies.

    Subclasses define a probability distribution over the delay
    ``x >= 0``.  Deterministic policies are represented as point masses
    (they override :meth:`is_deterministic`).

    Attributes
    ----------
    name:
        Short identifier used in experiment tables (e.g. ``"RRW(mu)"``).
    """

    #: Display name; subclasses override.
    name: str = "policy"

    # -- sampling -------------------------------------------------------
    @abc.abstractmethod
    def sample(self, rng: np.random.Generator | int | None = None) -> float:
        """Draw one delay."""

    def sample_many(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Draw ``n`` delays (vectorized where the subclass supports it).

        The base implementation loops over :meth:`sample`; continuous
        policies override with a single vectorized draw.
        """
        gen = ensure_rng(rng)
        return np.array([self.sample(gen) for _ in range(n)], dtype=float)

    # -- distribution ---------------------------------------------------
    @property
    @abc.abstractmethod
    def support(self) -> tuple[float, float]:
        """``(lo, hi)`` interval outside which the delay has zero mass."""

    @abc.abstractmethod
    def cdf(self, x: float) -> float:
        """``P(delay <= x)``."""

    def pdf(self, x: float) -> float:
        """Probability density at ``x`` (continuous policies only).

        Point-mass policies raise :class:`NotImplementedError`; callers
        that need full generality should use :meth:`cdf` or
        :meth:`expected_conflict_cost` hooks instead.
        """
        raise NotImplementedError(f"{type(self).__name__} has no density")

    def is_deterministic(self) -> bool:
        """Whether the policy is a point mass."""
        return False

    def expected_delay(self) -> float:
        """``E[delay]`` — integral of the survival function over the support."""
        lo, hi = self.support
        if hi <= lo:
            return lo
        xs = np.linspace(lo, hi, 4097)
        surv = 1.0 - np.array([self.cdf(x) for x in xs])
        return lo + float(np.trapezoid(surv, xs))

    # -- bookkeeping ----------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable summary."""
        lo, hi = self.support
        return f"{self.name}: delays in [{lo:g}, {hi:g}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class DeterministicDelayPolicy(DelayPolicy):
    """Base class for point-mass (deterministic) policies."""

    def __init__(self, delay: float) -> None:
        if not (isinstance(delay, (int, float)) and math.isfinite(delay)):
            raise InvalidParameterError(f"delay must be finite, got {delay!r}")
        if delay < 0:
            raise InvalidParameterError(f"delay must be >= 0, got {delay}")
        self._delay = float(delay)

    @property
    def delay(self) -> float:
        """The fixed grace period."""
        return self._delay

    def sample(self, rng: np.random.Generator | int | None = None) -> float:
        return self._delay

    def sample_many(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        return np.full(n, self._delay)

    @property
    def support(self) -> tuple[float, float]:
        return (self._delay, self._delay)

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self._delay else 0.0

    def is_deterministic(self) -> bool:
        return True

    def expected_delay(self) -> float:
        return self._delay


class FixedDelayPolicy(DeterministicDelayPolicy):
    """Always delay by a caller-chosen constant.

    This is the paper's hand-tuned baseline (``DELAY_TUNED`` in
    Section 8.2) when the constant is set from profiled knowledge of the
    workload's transaction lengths.
    """

    def __init__(self, delay: float, name: str | None = None) -> None:
        super().__init__(delay)
        self.name = name if name is not None else f"FIXED({delay:g})"


class ImmediateAbortPolicy(DeterministicDelayPolicy):
    """Abort on conflict with no grace period (``NO_DELAY``).

    The behaviour of stock requestor-wins HTM implementations.
    """

    name = "NO_DELAY"

    def __init__(self) -> None:
        super().__init__(0.0)


class NeverAbortPolicy(DeterministicDelayPolicy):
    """Delay (essentially) forever — always let the receiver commit.

    Useful as a pessimal baseline in tests and ablations: its
    competitive ratio is unbounded as ``D`` grows, which is exactly what
    the delay cap ``B/(k-1)`` exists to prevent.
    """

    name = "NEVER_ABORT"

    def __init__(self, horizon: float = math.inf) -> None:
        # A point mass at +inf breaks numeric integration, so a finite
        # horizon may be supplied for experiments; math.inf is accepted
        # for purely analytic use.
        if horizon is math.inf:
            self._delay = math.inf
        else:
            super().__init__(horizon)

    def sample(self, rng: np.random.Generator | int | None = None) -> float:
        return self._delay

    @property
    def support(self) -> tuple[float, float]:
        return (self._delay, self._delay)

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self._delay else 0.0


def clip_to_cap(policy_delay: float, model: "ConflictModel") -> float:
    """Clamp a raw delay to the model's cap ``B/(k-1)``.

    Exposed for simulation layers that combine externally-supplied delays
    (e.g. hand-tuned constants) with the cost model's structure.
    """
    return min(policy_delay, model.delay_cap)
