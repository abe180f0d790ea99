"""Counters and summaries for HTM machine runs."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.sim.stats import Welford

__all__ = ["CoreStats", "MachineStats"]


@dataclass
class CoreStats:
    """Per-core counters (one instance per core per run)."""

    core_id: int
    tx_started: int = 0
    tx_committed: int = 0
    tx_aborted: int = 0
    ops_completed: int = 0
    fallback_ops: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    writebacks: int = 0
    conflicts_received: int = 0
    nacks_sent: int = 0
    abort_reasons: dict[str, int] = field(default_factory=dict)
    grace_delay_stats: Welford = field(default_factory=Welford)

    @property
    def abort_rate(self) -> float:
        total = self.tx_committed + self.tx_aborted
        return self.tx_aborted / total if total else 0.0


class MachineStats:
    """Aggregated machine statistics.

    ``registry`` is the machine's :class:`~repro.obs.metrics.MetricsRegistry`;
    injected-fault counts now live there as ``fault_*`` counters
    (written by :class:`repro.faults.FaultInjector`).  A private
    registry is created when none is given so standalone construction
    keeps working.
    """

    def __init__(
        self, n_cores: int, registry: MetricsRegistry | None = None
    ) -> None:
        self._cores = [CoreStats(core_id=i) for i in range(n_cores)]
        self.cycles = 0.0
        self.cycle_aborts = 0
        self.registry = registry if registry is not None else MetricsRegistry()

    def core(self, core_id: int) -> CoreStats:
        return self._cores[core_id]

    def fault_counts(self) -> dict[str, int]:
        """Injected-fault event counts, keyed as before the registry
        migration (``spurious_aborts``, ``link_jitter_events``, ...)."""
        prefix = "fault_"
        return {
            name[len(prefix):]: value
            for name, value in self.registry.counter_values(prefix).items()
        }

    @property
    def cores(self) -> list[CoreStats]:
        return list(self._cores)

    # -- aggregates ---------------------------------------------------------
    def total(self, attr: str) -> int:
        return sum(getattr(c, attr) for c in self._cores)

    @property
    def ops_completed(self) -> int:
        return self.total("ops_completed")

    @property
    def tx_committed(self) -> int:
        return self.total("tx_committed")

    @property
    def tx_aborted(self) -> int:
        return self.total("tx_aborted")

    @property
    def abort_rate(self) -> float:
        total = self.tx_committed + self.tx_aborted
        return self.tx_aborted / total if total else 0.0

    def abort_reasons(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for c in self._cores:
            for reason, count in c.abort_reasons.items():
                merged[reason] = merged.get(reason, 0) + count
        return merged

    def throughput_ops_per_sec(self, clock_ghz: float) -> float:
        """Figure 3's y-axis: committed operations per wall-clock second
        at the configured clock."""
        if self.cycles <= 0:
            return 0.0
        return self.ops_completed * clock_ghz * 1e9 / self.cycles

    def summary(self) -> dict[str, float]:
        return {
            "cycles": self.cycles,
            "ops": float(self.ops_completed),
            "commits": float(self.tx_committed),
            "aborts": float(self.tx_aborted),
            "abort_rate": self.abort_rate,
            "fallback_ops": float(self.total("fallback_ops")),
            "l1_hits": float(self.total("l1_hits")),
            "l1_misses": float(self.total("l1_misses")),
            "conflicts": float(self.total("conflicts_received")),
        }

    def digest(self) -> str:
        """Content hash over every counter this object tracks.

        Two runs are behaviorally identical iff their digests match —
        the determinism regression tests compare these instead of
        cherry-picked counters, so any divergence anywhere in the stats
        (per-core counts, abort-reason breakdowns, grace-delay moments,
        fault counters) is caught.
        """
        payload = {
            "cycles": self.cycles,
            "cycle_aborts": self.cycle_aborts,
            "fault_counters": dict(sorted(self.fault_counts().items())),
            "cores": [
                {
                    "core_id": c.core_id,
                    "tx_started": c.tx_started,
                    "tx_committed": c.tx_committed,
                    "tx_aborted": c.tx_aborted,
                    "ops_completed": c.ops_completed,
                    "fallback_ops": c.fallback_ops,
                    "l1_hits": c.l1_hits,
                    "l1_misses": c.l1_misses,
                    "writebacks": c.writebacks,
                    "conflicts_received": c.conflicts_received,
                    "nacks_sent": c.nacks_sent,
                    "abort_reasons": dict(sorted(c.abort_reasons.items())),
                    "grace_n": c.grace_delay_stats.n,
                    "grace_mean": repr(c.grace_delay_stats.mean),
                    "grace_min": repr(c.grace_delay_stats.min),
                    "grace_max": repr(c.grace_delay_stats.max),
                }
                for c in self._cores
            ],
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()
