"""Fault plans: the configuration half of the fault-injection layer.

A :class:`FaultPlan` is a frozen, validated description of *what* can
go wrong during an HTM machine run and *how often*.  It is pure data —
the runtime half (drawing from seeded RNG streams, scheduling spurious
aborts, jittering the interconnect) lives in
:mod:`repro.faults.injectors` so a plan can be hashed, serialized into
experiment metadata, and shared across machines.

The fault model (documented at length in ``docs/ROBUSTNESS.md``):

===========================  ============================================
spurious_abort_rate          per-cycle hazard of a spurious abort while a
                             transaction runs (models HTM implementation
                             aborts: interrupts, TLB shootdowns, ...)
capacity_shrink_prob +       per-transaction probability that the L1
capacity_ways_lost           temporarily loses ways (models SMT sibling
                             pressure / way-partitioning changes)
link_jitter_rate +           per coherence traversal, probability of
link_jitter_cycles           paying up to that many extra cycles
                             (models interconnect congestion / NUMA)
stall_rate + stall_cycles    per-operation probability that the issuing
                             core stalls (models OS preemption)
b_noise / k_noise / mu_noise log-normal sigmas on the B, k, µ estimates
                             fed to the conflict policies (models
                             measurement error; see
                             :class:`repro.core.estimators.NoisyEstimator`)
===========================  ============================================

An all-zero plan is exactly equivalent to no plan: the machine takes
the null-injector fast path and produces byte-identical results (the
determinism regression test pins this).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from repro.errors import FaultInjectionError

__all__ = ["FaultPlan"]

_PROBABILITIES = (
    "capacity_shrink_prob",
    "link_jitter_rate",
    "stall_rate",
)
_NON_NEGATIVE = (
    "spurious_abort_rate",
    "capacity_ways_lost",
    "link_jitter_cycles",
    "stall_cycles",
    "b_noise",
    "k_noise",
    "mu_noise",
)


@dataclass(frozen=True)
class FaultPlan:
    """Composable fault-injection configuration for one machine run."""

    spurious_abort_rate: float = 0.0
    capacity_shrink_prob: float = 0.0
    capacity_ways_lost: int = 1
    link_jitter_rate: float = 0.0
    link_jitter_cycles: int = 0
    stall_rate: float = 0.0
    stall_cycles: int = 0
    b_noise: float = 0.0
    k_noise: float = 0.0
    mu_noise: float = 0.0

    def __post_init__(self) -> None:
        for name in _NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise FaultInjectionError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        for name in _PROBABILITIES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultInjectionError(
                    f"{name} is a probability, got {value}"
                )
        if self.spurious_abort_rate > 1.0:
            raise FaultInjectionError(
                "spurious_abort_rate is a per-cycle hazard and must be <= 1"
            )
        if self.link_jitter_rate > 0 and self.link_jitter_cycles < 1:
            raise FaultInjectionError(
                "link_jitter_rate > 0 needs link_jitter_cycles >= 1"
            )
        if self.stall_rate > 0 and self.stall_cycles < 1:
            raise FaultInjectionError(
                "stall_rate > 0 needs stall_cycles >= 1"
            )
        if self.capacity_shrink_prob > 0 and self.capacity_ways_lost < 1:
            raise FaultInjectionError(
                "capacity_shrink_prob > 0 needs capacity_ways_lost >= 1"
            )

    # ------------------------------------------------------------------
    def is_null(self) -> bool:
        """True when the plan injects nothing (all rates/sigmas zero)."""
        return (
            self.spurious_abort_rate == 0.0
            and self.capacity_shrink_prob == 0.0
            and self.link_jitter_rate == 0.0
            and self.stall_rate == 0.0
            and self.b_noise == 0.0
            and self.k_noise == 0.0
            and self.mu_noise == 0.0
        )

    def active_faults(self) -> list[str]:
        """Names of the injectors this plan actually enables."""
        out = []
        if self.spurious_abort_rate > 0:
            out.append("spurious_abort")
        if self.capacity_shrink_prob > 0:
            out.append("capacity_shrink")
        if self.link_jitter_rate > 0:
            out.append("link_jitter")
        if self.stall_rate > 0:
            out.append("core_stall")
        if self.b_noise > 0 or self.k_noise > 0 or self.mu_noise > 0:
            out.append("estimator_noise")
        return out

    # -- (de)serialization (checkpoint / experiment metadata) ------------
    def to_dict(self) -> dict[str, float | int]:
        return asdict(self)

    @classmethod
    def from_dict(cls, config: dict[str, float | int]) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(config) - known
        if unknown:
            raise FaultInjectionError(
                f"unknown fault-plan keys: {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**config)

    def scaled(self, factor: float) -> "FaultPlan":
        """Copy with every *rate* scaled (noise sigmas untouched);
        handy for sweeping one plan shape over intensities."""
        if factor < 0:
            raise FaultInjectionError(f"scale factor must be >= 0, got {factor}")
        return replace(
            self,
            spurious_abort_rate=min(1.0, self.spurious_abort_rate * factor),
            capacity_shrink_prob=min(1.0, self.capacity_shrink_prob * factor),
            link_jitter_rate=min(1.0, self.link_jitter_rate * factor),
            stall_rate=min(1.0, self.stall_rate * factor),
        )

    def describe(self) -> str:
        active = self.active_faults()
        return "no faults" if not active else "+".join(active)
