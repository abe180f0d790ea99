"""Deterministic replay/load generation for the decision service.

The generator simulates a population of millions of clients hammering
a contended key space and asking the service for conflict decisions:

* **Zipfian key skew** — keys are drawn from a bounded Zipf(s)
  distribution over ``n_keys`` keys (precomputed CDF + binary search),
  so a handful of hot keys carry most of the conflict traffic, like a
  real OLTP hotspot.
* **Bursty arrivals** — inter-arrival gaps are exponential at a base
  rate, except that every ``burst_every`` conflicts the next
  ``burst_len`` arrivals come at ``burst_rate`` (an on/off modulated
  Poisson process).
* **Regime shifts** — the stream is a sequence of
  :class:`PhaseSpec` workload phases with different mean commit
  durations µ, chain-size distributions and transaction ages, so the
  online estimators see genuine drift and the adaptive policy has to
  re-dispatch mid-stream.

Everything is a pure function of ``(seed, config)`` via
:func:`repro.rngutil.stream_for` — same seed, same byte-identical
request trace, which the determinism tests and the CI serve gate pin.
Draws are batched per phase with NumPy, so generating millions of
requests costs array operations, not per-request Python dispatch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import InvalidParameterError
from repro.rngutil import stream_for
from repro.serve.service import CommitReport, ConflictRequest

__all__ = [
    "PhaseSpec",
    "LoadGenConfig",
    "default_config",
    "generate",
    "request_trace_line",
    "zipf_cdf",
]


@dataclass(frozen=True)
class PhaseSpec:
    """One workload phase (a contention regime).

    ``conflicts`` conflict requests are generated with transaction
    ages ~ Exp(``age_mean``), chain sizes ``2 + Geometric(k_p) - 1``
    (so ``k_p = 1`` pins k = 2, smaller ``k_p`` grows deeper chains),
    and — with probability ``commit_ratio`` after each conflict — a
    commit report with duration ~ Exp(``mu_cycles``).  Arrivals run at
    ``rate`` requests/µs, except bursts of ``burst_len`` requests at
    ``burst_rate`` starting every ``burst_every`` conflicts.
    """

    conflicts: int
    mu_cycles: float
    k_p: float
    age_mean: float
    commit_ratio: float = 0.08
    rate: float = 0.05
    burst_rate: float = 1.0
    burst_len: int = 64
    burst_every: int = 512

    def __post_init__(self) -> None:
        if self.conflicts < 1:
            raise InvalidParameterError(
                f"conflicts must be >= 1, got {self.conflicts}"
            )
        if not 0.0 < self.k_p <= 1.0:
            raise InvalidParameterError(
                f"k_p must be in (0, 1], got {self.k_p}"
            )
        if not 0.0 <= self.commit_ratio <= 1.0:
            raise InvalidParameterError(
                f"commit_ratio must be in [0, 1], got {self.commit_ratio}"
            )
        for name in ("mu_cycles", "age_mean", "rate", "burst_rate"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        if self.burst_len < 0 or self.burst_every < 1:
            raise InvalidParameterError(
                "burst_len must be >= 0 and burst_every >= 1"
            )


@dataclass(frozen=True)
class LoadGenConfig:
    """The full request-stream shape: key space plus phase schedule."""

    phases: tuple[PhaseSpec, ...]
    n_keys: int = 4096
    zipf_s: float = 1.1
    client_space: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.phases:
            raise InvalidParameterError("config needs at least one phase")
        if self.n_keys < 1 or self.client_space < 1:
            raise InvalidParameterError(
                "n_keys and client_space must be >= 1"
            )
        if self.zipf_s <= 0:
            raise InvalidParameterError(
                f"zipf_s must be > 0, got {self.zipf_s}"
            )

    @property
    def total_conflicts(self) -> int:
        return sum(p.conflicts for p in self.phases)

    def scaled(self, conflicts: int) -> "LoadGenConfig":
        """Same shape, phase budgets rescaled to ``conflicts`` total."""
        if conflicts < len(self.phases):
            raise InvalidParameterError(
                f"need >= {len(self.phases)} conflicts, got {conflicts}"
            )
        total = self.total_conflicts
        scaled = []
        assigned = 0
        for i, phase in enumerate(self.phases):
            if i == len(self.phases) - 1:
                n = conflicts - assigned
            else:
                n = max(1, int(round(conflicts * phase.conflicts / total)))
            assigned += n
            scaled.append(
                PhaseSpec(
                    conflicts=n,
                    mu_cycles=phase.mu_cycles,
                    k_p=phase.k_p,
                    age_mean=phase.age_mean,
                    commit_ratio=phase.commit_ratio,
                    rate=phase.rate,
                    burst_rate=phase.burst_rate,
                    burst_len=phase.burst_len,
                    burst_every=phase.burst_every,
                )
            )
        return LoadGenConfig(
            phases=tuple(scaled),
            n_keys=self.n_keys,
            zipf_s=self.zipf_s,
            client_space=self.client_space,
        )


def default_config(quick: bool = False) -> LoadGenConfig:
    """The standard three-regime schedule.

    Phase 0 — *short transactions, shallow chains*: µ̂/B̂ lands well
    inside the Theorem 5 mean regime (the adaptive policy should
    settle on ``mean`` after bootstrap).  Phase 1 — *long
    transactions*: µ jumps 25x, pushing µ̂/B̂ far above the regime
    threshold (``rand``).  Phase 2 — *deeper chains, short
    transactions again*: back inside the (now k ≈ 3) regime
    (``mean``).  Quick mode totals 10k conflicts; full mode 1M.
    """
    scale = 1 if quick else 100
    # commit_ratio 0.4 so even the quick 10k-conflict schedule pushes
    # more than one full estimator window (1024 commits) of µ samples
    # through each phase — otherwise phase 1's long-transaction
    # durations would never decay out and phase 2 could not switch the
    # adaptive policy back into the mean regime.
    return LoadGenConfig(
        phases=(
            PhaseSpec(
                conflicts=4_000 * scale,
                mu_cycles=60.0,
                k_p=1.0,
                age_mean=400.0,
                commit_ratio=0.4,
            ),
            PhaseSpec(
                conflicts=3_000 * scale,
                mu_cycles=2_000.0,
                k_p=0.9,
                age_mean=200.0,
                commit_ratio=0.4,
                rate=0.02,
                burst_rate=0.5,
                burst_len=128,
                burst_every=1_024,
            ),
            PhaseSpec(
                conflicts=3_000 * scale,
                mu_cycles=80.0,
                k_p=0.5,
                age_mean=300.0,
                commit_ratio=0.4,
            ),
        ),
    )


def zipf_cdf(n_keys: int, s: float) -> np.ndarray:
    """CDF of a bounded Zipf(s) law over ranks ``1..n_keys``."""
    weights = np.arange(1, n_keys + 1, dtype=np.float64) ** -float(s)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def _burst_rates(phase: PhaseSpec) -> np.ndarray:
    """Per-conflict arrival rate: base, with periodic burst windows."""
    idx = np.arange(phase.conflicts)
    in_burst = (idx % phase.burst_every) < phase.burst_len
    return np.where(in_burst, phase.burst_rate, phase.rate)


def generate(
    seed: int | None, config: LoadGenConfig
) -> Iterator[ConflictRequest | CommitReport]:
    """Yield the request stream, one event at a time, in ``seq`` order.

    Each phase derives its own child stream
    (``stream_for(seed, "loadgen", phase_index)``) and batch-draws all
    of its randomness up front, so the stream for a fixed
    ``(seed, config)`` is byte-identical run to run and streamable at
    millions of events without holding them all in memory.
    """
    cdf = zipf_cdf(config.n_keys, config.zipf_s)
    seq = 0
    arrival = 0.0
    for phase_idx, phase in enumerate(config.phases):
        rng = stream_for(seed, "loadgen", phase_idx)
        n = phase.conflicts
        key_u = rng.random(n)
        keys = np.searchsorted(cdf, key_u)
        clients = rng.integers(0, config.client_space, n)
        ages = rng.exponential(phase.age_mean, n)
        chain_ks = 1 + rng.geometric(phase.k_p, n)
        commit_u = rng.random(n)
        durations = rng.exponential(phase.mu_cycles, n)
        gaps = rng.exponential(1.0, n) / _burst_rates(phase)
        draws = (clients, keys, ages, chain_ks, commit_u, durations, gaps)
        # .tolist(): Python numbers with the same bits, not numpy scalars
        for client, key, age, chain_k, u, duration, gap in zip(
            *(draw.tolist() for draw in draws)
        ):
            arrival += gap
            at = round(arrival, 3)
            yield ConflictRequest(
                seq=seq,
                client_id=client,
                key=key,
                tx_age=int(age),
                chain_k=chain_k,
                phase=phase_idx,
                arrival_us=at,
            )
            seq += 1
            if u < phase.commit_ratio:
                yield CommitReport(
                    seq=seq,
                    client_id=client,
                    key=key,
                    duration=round(duration, 3),
                    phase=phase_idx,
                    arrival_us=at,
                )
                seq += 1


def request_trace_line(event: ConflictRequest | CommitReport) -> str:
    """Canonical one-line JSON for a generated event.

    The request-trace analogue of
    :func:`repro.serve.service.decision_line`: two traces are equal
    iff their bytes are equal, which is how the determinism tests pin
    "same seed → same stream".
    """
    if isinstance(event, CommitReport):
        payload = {
            "kind": "commit",
            "seq": event.seq,
            "client": event.client_id,
            "key": event.key,
            "duration": event.duration,
            "phase": event.phase,
            "arrival_us": event.arrival_us,
        }
    else:
        payload = {
            "kind": "conflict",
            "seq": event.seq,
            "client": event.client_id,
            "key": event.key,
            "age": event.tx_age,
            "chain_k": event.chain_k,
            "phase": event.phase,
            "arrival_us": event.arrival_us,
        }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
