"""Runtime fault injection for the HTM machine.

The :class:`FaultInjector` is the active half of a
:class:`~repro.faults.plan.FaultPlan`: it owns the seeded RNG streams,
schedules spurious-abort timers, applies capacity pressure, wraps the
interconnect with jitter, and perturbs the estimator inputs the
conflict policies see.  The machine talks to it through a small hook
surface (begin/end transaction, operation issue, context
construction) so the HTM protocol code stays fault-agnostic.

When no plan is given (or the plan is all-zero), the machine keeps the
module-level :data:`NULL_INJECTOR` — every hook is a no-op that neither
consumes randomness nor schedules events, so clean runs are
byte-identical to a build without the fault layer at all.  The
determinism regression test (``tests/test_faults.py``) pins this.

Seeding: streams derive from the machine's load seed via
:func:`repro.rngutil.stream_for` under the ``"faults"`` namespace, so
they are independent of every per-core stream — arming the injector
never perturbs the workload's own randomness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.estimators import NoisyEstimator
from repro.faults.plan import FaultPlan
from repro.htm.controller import AbortReason
from repro.htm.interconnect import JitteredTopology
from repro.rngutil import stream_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.htm.controller import CoreMemSystem
    from repro.htm.machine import Machine

__all__ = ["FaultInjector", "NullInjector", "NULL_INJECTOR", "injector_for"]


class NullInjector:
    """The no-fault fast path: every hook is an inert identity.

    Kept stateless and shared (:data:`NULL_INJECTOR`) so constructing
    machines stays cheap and the clean path has zero per-event cost
    beyond one attribute lookup and a constant-returning call.
    """

    plan: FaultPlan | None = None

    def arm(self, machine: "Machine", seed: int | None) -> None:
        return None

    def on_begin_tx(self, mem: "CoreMemSystem") -> None:
        return None

    def on_end_tx(self, mem: "CoreMemSystem") -> None:
        return None

    def stall_cycles(self) -> int:
        return 0

    def noisy_context(self, tx_age: int, chain_k: int) -> tuple[int, int]:
        return tx_age, chain_k

    def noisy_commit_duration(self, duration: float) -> float:
        return duration


#: Shared inert injector used by every machine without a fault plan.
NULL_INJECTOR = NullInjector()


class FaultInjector(NullInjector):
    """Active injector bound to one machine run."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.machine: "Machine | None" = None
        self._rng = None  # armed at load time (needs the run seed)
        self._estimator = NoisyEstimator(
            sigma_b=plan.b_noise, sigma_k=plan.k_noise, sigma_mu=plan.mu_noise
        )
        # per-core pending spurious-abort timer events
        self._spurious_events: dict[int, object] = {}

    # ------------------------------------------------------------------
    def arm(self, machine: "Machine", seed: int | None) -> None:
        """Bind to a machine at load time: derive streams, wrap the
        interconnect.  Called once per ``Machine.load``."""
        self.machine = machine
        self._rng = stream_for(seed, "faults", "events")
        self._spurious_events.clear()
        plan = self.plan
        if plan.link_jitter_rate > 0:
            topology = machine.directory.topology
            # re-arming (load called twice) must not stack wrappers
            if isinstance(topology, JitteredTopology):
                topology = topology.inner
            machine.directory.topology = JitteredTopology(
                topology,
                stream_for(seed, "faults", "link"),
                rate=plan.link_jitter_rate,
                max_extra=plan.link_jitter_cycles,
                on_jitter=lambda: self._count("link_jitter_events"),
            )

    def _count(self, key: str, n: int = 1) -> None:
        self.machine.stats.registry.counter("fault_" + key).inc(n)
        self.machine.emit("fault_injected", -1, fault=key, n=n)

    # -- transaction lifecycle -------------------------------------------
    def on_begin_tx(self, mem: "CoreMemSystem") -> None:
        plan = self.plan
        if plan.spurious_abort_rate > 0:
            # exponential inter-arrival at the configured per-cycle
            # hazard; only armed when it would land within any plausible
            # horizon (keeps the event queue free of far-future timers)
            ttf = self._rng.exponential(1.0 / plan.spurious_abort_rate)
            delay = max(1, int(ttf))
            if delay < 2**40:
                self._spurious_events[mem.core_id] = mem.sim.after(
                    delay,
                    self._spurious_fire,
                    mem,
                    mem.tx_epoch,
                    label="fault-spurious",
                )
        if plan.capacity_shrink_prob > 0 and (
            self._rng.random() < plan.capacity_shrink_prob
        ):
            lost = min(plan.capacity_ways_lost, mem.params.l1_assoc - 1)
            if lost > 0:
                mem.cache.reserved_ways = lost
                self._count("capacity_shrinks")

    def _spurious_fire(self, mem: "CoreMemSystem", epoch: int) -> None:
        # the event has fired: forget it, so on_end_tx cancels only a
        # pending timer
        self._spurious_events.pop(mem.core_id, None)
        if mem.tx_active and mem.tx_epoch == epoch:
            self._count("spurious_aborts")
            mem.abort_tx(AbortReason.SPURIOUS)

    def on_end_tx(self, mem: "CoreMemSystem") -> None:
        event = self._spurious_events.pop(mem.core_id, None)
        if event is not None:
            mem.sim.cancel(event)
        if mem.cache.reserved_ways:
            mem.cache.reserved_ways = 0

    # -- core issue path ---------------------------------------------------
    def stall_cycles(self) -> int:
        plan = self.plan
        if plan.stall_rate > 0 and self._rng.random() < plan.stall_rate:
            self._count("core_stalls")
            return int(self._rng.integers(1, plan.stall_cycles + 1))
        return 0

    # -- estimator noise ---------------------------------------------------
    def noisy_context(self, tx_age: int, chain_k: int) -> tuple[int, int]:
        """Perturb the (age, k) pair a conflict decision is about to
        use.  ``B = age + overhead`` downstream, so age noise is B
        noise on the variable component the receiver actually measures."""
        est = self._estimator
        if est.sigma_b == 0.0 and est.sigma_k == 0.0:
            return tx_age, chain_k
        self._count("noisy_estimates")
        return est.age_hat(tx_age, self._rng), est.k_hat(chain_k, self._rng)

    def noisy_commit_duration(self, duration: float) -> float:
        """Perturb the committed-duration samples feeding the online
        profiler (µ estimation) — commit observers see the noisy value."""
        est = self._estimator
        if est.sigma_mu == 0.0:
            return duration
        return est.mu_hat(duration, self._rng)


def injector_for(plan: FaultPlan | None) -> NullInjector:
    """The injector a machine should carry for ``plan`` (shared null
    object when the plan injects nothing)."""
    if plan is None or plan.is_null():
        return NULL_INJECTOR
    return FaultInjector(plan)
