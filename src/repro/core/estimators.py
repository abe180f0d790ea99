"""Estimator models for the policy inputs B, k and µ.

Every delay policy in this repository is parameterized by estimates —
the abort cost ``B`` (footnote 1: transaction age + cleanup overhead),
the conflict-chain size ``k`` (read off the waits-for graph), and the
profiled mean remaining time ``µ`` (Theorems 2/3/5/6).  Two halves
live here:

* **Measurement error** — :class:`NoisyEstimator`: on real hardware
  none of the three inputs is exact (ages are sampled late, chains are
  racing moving targets, profilers lag the workload).  The
  fault-injection layer (:mod:`repro.faults`) and the robustness
  experiments share this one seeded model of that error: independent
  multiplicative log-normal noise per quantity.  Log-normal is the
  natural choice for positive scale estimates — the error is symmetric
  in *ratio*, and ``sigma = 0`` degenerates to the exact value without
  consuming randomness (the zero-fault determinism guarantee).
* **Online estimation** — :class:`WindowedMean` and
  :class:`OnlineEstimator`: the decision service (:mod:`repro.serve`)
  estimates (B, k, µ) *from the live request stream* rather than from
  an offline profile.  Decay is window-based (the estimate is the mean
  of the last ``window`` observations, older samples fall out), which
  is what lets the adaptive policy track regime shifts mid-stream.
  Updates are O(1) — a Neumaier-compensated running sum over a deque —
  with a periodic exact ``fsum`` resync so the streaming value never
  drifts from the batch recomputation; the pure batch references
  (:func:`offline_window_mean`, :func:`offline_estimate`) are the
  ground truth the property suite (``tests/test_serve_estimators.py``)
  pins the online path against.

Everything here is deterministic and allocation-light: no wall-clock
reads, no ambient randomness, no global state — the estimators run
inside sim-critical callers and must preserve the repository's
bit-determinism contract.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import FaultInjectionError, InvalidParameterError

__all__ = [
    "NoisyEstimator",
    "WindowedMean",
    "EstimateSnapshot",
    "OnlineEstimator",
    "offline_window_mean",
    "offline_estimate",
]


@dataclass(frozen=True)
class NoisyEstimator:
    """Multiplicative log-normal noise on the (B, k, µ) estimates.

    Attributes
    ----------
    sigma_b / sigma_k / sigma_mu:
        Standard deviation of ``log(estimate / truth)`` per quantity;
        0 means the quantity is observed exactly.
    """

    sigma_b: float = 0.0
    sigma_k: float = 0.0
    sigma_mu: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sigma_b", "sigma_k", "sigma_mu"):
            if getattr(self, name) < 0:
                raise FaultInjectionError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )

    @property
    def exact(self) -> bool:
        return self.sigma_b == 0.0 and self.sigma_k == 0.0 and self.sigma_mu == 0.0

    @staticmethod
    def _factor(sigma: float, rng: np.random.Generator) -> float:
        if sigma <= 0:
            return 1.0
        return float(np.exp(sigma * rng.standard_normal()))

    def age_hat(self, age: int, rng: np.random.Generator) -> int:
        """Noisy transaction age (the variable part of ``B``)."""
        if self.sigma_b <= 0:
            return age
        return max(0, int(round(age * self._factor(self.sigma_b, rng))))

    def k_hat(self, k: int, rng: np.random.Generator) -> int:
        """Noisy chain size, clamped to the model's ``k >= 2`` domain."""
        if self.sigma_k <= 0:
            return k
        return max(2, int(round(k * self._factor(self.sigma_k, rng))))

    def mu_hat(self, mu: float, rng: np.random.Generator) -> float:
        """Noisy profiled mean (always strictly positive)."""
        if self.sigma_mu <= 0:
            return mu
        return max(1e-9, mu * self._factor(self.sigma_mu, rng))


# ---------------------------------------------------------------------------
# Online (streaming) estimation with windowed decay
# ---------------------------------------------------------------------------


def _check_window(window: int) -> int:
    if not isinstance(window, int) or isinstance(window, bool) or window < 1:
        raise InvalidParameterError(
            f"window must be an integer >= 1, got {window!r}"
        )
    return window


class WindowedMean:
    """Streaming mean of the last ``window`` observations.

    The decay model is a hard sliding window: an observation
    contributes with full weight until it is ``window`` samples old,
    then drops out entirely.  That makes the estimate a pure function
    of the window's *contents*, which is what the offline reference
    (:func:`offline_window_mean`) recomputes from scratch — the two
    must agree to float round-off on any stream.

    Updates are O(1): the running sum is Neumaier-compensated on both
    the arriving and the departing sample, and every ``window``
    observations the sum is resynced with an exact :func:`math.fsum`
    over the buffer so error can never accumulate across regimes.
    """

    __slots__ = ("window", "_buf", "_sum", "_comp", "_since_sync")

    def __init__(self, window: int) -> None:
        self.window = _check_window(window)
        self._buf: deque[float] = deque()
        self._sum = 0.0
        self._comp = 0.0
        self._since_sync = 0

    def observe(self, x: float) -> None:
        x = float(x)
        if not math.isfinite(x):
            raise InvalidParameterError(
                f"observation must be finite, got {x!r}"
            )
        buf = self._buf
        buf.append(x)
        # Neumaier-compensated accumulation; removal adds the departing
        # sample with a flipped sign
        s = self._sum
        t = s + x
        if abs(s) >= abs(x):
            comp = self._comp + ((s - t) + x)
        else:
            comp = self._comp + ((x - t) + s)
        if len(buf) > self.window:
            y = -buf.popleft()
            s = t
            t = s + y
            if abs(s) >= abs(y):
                comp += (s - t) + y
            else:
                comp += (y - t) + s
        self._sum = t
        self._comp = comp
        self._since_sync += 1
        if self._since_sync >= self.window:
            # exact resync: keep the part of the exact sum that does
            # not fit in one float in the compensation term, so a huge
            # transient cannot erase the tiny samples riding under it
            s = math.fsum(buf)
            self._sum = s
            self._comp = math.fsum([-s, *buf])
            self._since_sync = 0

    @property
    def n(self) -> int:
        """Observations currently inside the window."""
        return len(self._buf)

    @property
    def total(self) -> float:
        return self._sum + self._comp

    @property
    def mean(self) -> float:
        """Window mean, or NaN while the window is empty."""
        if not self._buf:
            return math.nan
        return (self._sum + self._comp) / len(self._buf)

    def reset(self) -> None:
        self._buf.clear()
        self._sum = 0.0
        self._comp = 0.0
        self._since_sync = 0


def offline_window_mean(values: Sequence[float], window: int) -> float:
    """Batch reference for :class:`WindowedMean`: the exact mean of the
    last ``window`` elements of ``values`` (NaN when empty)."""
    _check_window(window)
    tail = list(values)[-window:]
    if not tail:
        return math.nan
    return math.fsum(float(v) for v in tail) / len(tail)


@dataclass(frozen=True)
class EstimateSnapshot:
    """One consistent read of the stream estimators.

    ``b_hat``/``k_hat``/``mu_hat`` are window means (NaN while the
    corresponding window is empty); the counts say how much evidence
    each estimate rests on — the adaptive policy treats a thin sample
    as a cold start and falls back to the deterministic rule.
    """

    b_hat: float
    k_hat: float
    mu_hat: float
    n_conflicts: int
    n_commits: int

    def k_round(self) -> int:
        """``k_hat`` rounded into the model's ``k >= 2`` domain."""
        if math.isnan(self.k_hat):
            return 2
        return max(2, int(round(self.k_hat)))


class OnlineEstimator:
    """Incremental (B, k, µ) estimation over a conflict/commit stream.

    Two feeds:

    * :meth:`observe_conflict` — every decision request carries the
      receiver's abort cost ``B`` and chain size ``k`` at conflict
      time; both go into sliding windows.
    * :meth:`observe_commit` — committed transactions report their
      duration, the live analogue of the profiled mean remaining time
      ``µ`` that Theorems 2/3/5/6 consume.

    :meth:`snapshot` is O(1) and side-effect-free, so the decision
    service can read estimates per request without perturbing them.
    """

    __slots__ = ("_b", "_k", "_mu")

    def __init__(self, window: int = 1024) -> None:
        self._b = WindowedMean(window)
        self._k = WindowedMean(window)
        self._mu = WindowedMean(window)

    @property
    def window(self) -> int:
        return self._b.window

    def observe_conflict(self, b: float, k: int) -> None:
        if b < 0:
            raise InvalidParameterError(f"abort cost must be >= 0, got {b!r}")
        if k < 2:
            raise InvalidParameterError(f"chain size must be >= 2, got {k!r}")
        self._b.observe(b)
        self._k.observe(k)

    def observe_commit(self, duration: float) -> None:
        if duration < 0:
            raise InvalidParameterError(
                f"commit duration must be >= 0, got {duration!r}"
            )
        self._mu.observe(duration)

    def snapshot(self) -> EstimateSnapshot:
        return EstimateSnapshot(
            b_hat=self._b.mean,
            k_hat=self._k.mean,
            mu_hat=self._mu.mean,
            n_conflicts=self._b.n,
            n_commits=self._mu.n,
        )

    def reset(self) -> None:
        self._b.reset()
        self._k.reset()
        self._mu.reset()


def offline_estimate(
    conflicts: Iterable[tuple[float, int]],
    durations: Sequence[float],
    window: int = 1024,
) -> EstimateSnapshot:
    """Batch reference for :class:`OnlineEstimator`.

    Recomputes what an online estimator with the same ``window`` holds
    after consuming ``conflicts`` (``(B, k)`` pairs, in order) and
    ``durations`` — the property suite feeds both paths the same
    stream and pins them together.
    """
    window = _check_window(window)
    bs: list[float] = []
    ks: list[float] = []
    for b, k in conflicts:
        bs.append(float(b))
        ks.append(float(k))
    tail_b = bs[-window:]
    tail_mu = [float(d) for d in durations][-window:]
    return EstimateSnapshot(
        b_hat=offline_window_mean(bs, window),
        k_hat=offline_window_mean(ks, window),
        mu_hat=offline_window_mean(tail_mu, window),
        n_conflicts=len(tail_b),
        n_commits=len(tail_mu),
    )
