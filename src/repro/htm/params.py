"""Machine configuration for the HTM simulator.

Latencies are in core cycles and follow the ballpark of Graphite's
default private-L1 / shared-L2 configuration (the paper does not list
its exact table; relative policy comparisons are insensitive to the
constants, which the ablation benches confirm).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import InvalidParameterError

__all__ = ["MachineParams"]


@dataclass(frozen=True)
class MachineParams:
    """Geometry and timing of the simulated multicore.

    Attributes
    ----------
    n_cores:
        Number of cores (= hardware threads; the paper sweeps 1..18).
    line_words:
        Words per cache line (addresses are word-granular; 8 words =
        64 B lines at 8-byte words).
    l1_sets / l1_assoc:
        Private L1 geometry (default 64 sets x 8 ways = 512 lines =
        32 KiB of 64 B lines).
    l1_hit / dir_lookup / mem_latency / hop:
        Core cycles for an L1 hit, a directory/L2 access, a DRAM fill
        (first touch of a line), and one network traversal
        (request, probe, or response each pay one hop).
    commit_cycles / abort_cycles:
        Fixed cost of a commit (clearing tx bits) and of an abort
        (invalidate + restore checkpoint).
    max_retries:
        HTM attempts per operation before escalating to the workload's
        lock-free fallback path.
    retry_backoff_base / retry_backoff_cap:
        Randomized exponential backoff between HTM retries
        (``min(base * 2^attempt, cap)`` cycles, jittered x[0.5, 1.5)).
        Real requestor-wins HTMs need this to avoid mutual-kill
        livelock; disabled when ``retry_backoff_base == 0``.
    abort_overhead:
        The fixed "cleanup" component of the conflict-policy abort-cost
        estimate ``B = tx_age + abort_overhead`` (paper, footnote 1).
    clock_ghz:
        Only used to convert cycles to ops/second for Figure 3's y-axis.
    """

    n_cores: int = 8
    line_words: int = 8
    l1_sets: int = 64
    l1_assoc: int = 8
    l1_hit: int = 1
    dir_lookup: int = 12
    mem_latency: int = 80
    hop: int = 4
    commit_cycles: int = 6
    abort_cycles: int = 60
    max_retries: int = 8
    retry_backoff_base: int = 16
    retry_backoff_cap: int = 2048
    abort_overhead: int = 100
    clock_ghz: float = 1.0

    def __post_init__(self) -> None:
        positive = (
            "n_cores line_words l1_sets l1_assoc l1_hit dir_lookup "
            "mem_latency commit_cycles abort_cycles max_retries "
            "abort_overhead"
        ).split()
        for name in positive:
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be >= 1")
        for name in ("hop", "retry_backoff_base", "retry_backoff_cap"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0")
        if self.clock_ghz <= 0:
            raise InvalidParameterError("clock_ghz must be positive")

    @property
    def l1_lines(self) -> int:
        return self.l1_sets * self.l1_assoc

    def line_of(self, addr: int) -> int:
        """Word address -> cache-line index."""
        if addr < 0:
            raise InvalidParameterError(f"negative address {addr}")
        return addr // self.line_words

    def with_cores(self, n_cores: int) -> "MachineParams":
        """Copy with a different core count (thread sweeps)."""
        return replace(self, n_cores=n_cores)

    def with_updates(self, **updates) -> "MachineParams":
        """Validated copy with arbitrary field overrides (robustness
        sweeps perturb several fields at once; ``replace`` re-runs
        ``__post_init__`` so invalid combinations still raise)."""
        unknown = set(updates) - {f.name for f in fields(self)}
        if unknown:
            raise InvalidParameterError(
                f"unknown MachineParams fields: {sorted(unknown)}"
            )
        return replace(self, **updates)
