"""Fault-injection layer: plan validation, determinism, injector effects.

The determinism class holds the PR's headline regression: a machine
built with an all-zero :class:`FaultPlan` must be *byte-identical*
(stats digest) to one built with no fault layer at all, and any active
plan must replay exactly under the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimators import NoisyEstimator
from repro.errors import FaultInjectionError
from repro.faults import NULL_INJECTOR, FaultInjector, FaultPlan, injector_for
from repro.htm import Machine, MachineParams, RandDelay
from repro.htm.controller import AbortReason
from repro.workloads import QueueWorkload

#: every injector enabled, rates high enough that a short run trips all
#: of them
FULL_PLAN = FaultPlan(
    spurious_abort_rate=2e-3,
    capacity_shrink_prob=0.3,
    capacity_ways_lost=2,
    link_jitter_rate=0.25,
    link_jitter_cycles=12,
    stall_rate=0.1,
    stall_cycles=80,
    b_noise=0.3,
    k_noise=0.3,
    mu_noise=0.3,
)


def _run(faults=None, *, seed=7, horizon=30_000.0, n_cores=4):
    params = MachineParams(n_cores=n_cores)
    workload = QueueWorkload()
    machine = Machine(params, lambda i: RandDelay(), faults=faults)
    machine.load(workload, seed=seed)
    stats = machine.run(horizon)
    workload.verify(machine)
    machine.check_invariants()
    return machine, stats


class TestFaultPlan:
    def test_defaults_are_null(self):
        plan = FaultPlan()
        assert plan.is_null()
        assert plan.active_faults() == []
        assert plan.describe() == "no faults"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(spurious_abort_rate=-1e-3),
            dict(spurious_abort_rate=1.5),
            dict(capacity_shrink_prob=2.0),
            dict(link_jitter_rate=-0.1),
            dict(stall_rate=1.01),
            dict(stall_cycles=-5),
            dict(b_noise=-0.2),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(FaultInjectionError):
            FaultPlan(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(link_jitter_rate=0.1, link_jitter_cycles=0),
            dict(stall_rate=0.1, stall_cycles=0),
            dict(capacity_shrink_prob=0.1, capacity_ways_lost=0),
        ],
    )
    def test_cross_field_validation(self, kwargs):
        with pytest.raises(FaultInjectionError):
            FaultPlan(**kwargs)

    def test_active_faults_names(self):
        assert FULL_PLAN.active_faults() == [
            "spurious_abort",
            "capacity_shrink",
            "link_jitter",
            "core_stall",
            "estimator_noise",
        ]

    def test_dict_roundtrip(self):
        assert FaultPlan.from_dict(FULL_PLAN.to_dict()) == FULL_PLAN

    def test_from_dict_unknown_key(self):
        with pytest.raises(FaultInjectionError, match="unknown"):
            FaultPlan.from_dict({"spurious_rate": 1e-3})

    def test_scaled(self):
        doubled = FULL_PLAN.scaled(2.0)
        assert doubled.spurious_abort_rate == 2 * FULL_PLAN.spurious_abort_rate
        assert doubled.stall_rate == pytest.approx(0.2)
        assert doubled.b_noise == FULL_PLAN.b_noise  # sigmas untouched
        assert FULL_PLAN.scaled(100.0).stall_rate == 1.0  # capped
        assert FULL_PLAN.scaled(0.0).is_null() is False  # noise remains
        with pytest.raises(FaultInjectionError):
            FULL_PLAN.scaled(-1.0)

    def test_injector_selection(self):
        assert injector_for(None) is NULL_INJECTOR
        assert injector_for(FaultPlan()) is NULL_INJECTOR
        assert isinstance(injector_for(FULL_PLAN), FaultInjector)

    def test_machine_accepts_dict_plan(self):
        machine = Machine(
            MachineParams(n_cores=2),
            lambda i: RandDelay(),
            faults={"spurious_abort_rate": 1e-3},
        )
        assert machine.fault_plan == FaultPlan(spurious_abort_rate=1e-3)
        assert isinstance(machine.faults, FaultInjector)


class TestDeterminism:
    def test_null_plan_byte_identical_to_no_plan(self):
        """An all-zero plan must not perturb anything: same digest as a
        machine built without the fault layer (PR acceptance)."""
        _, clean = _run(None)
        _, nulled = _run(FaultPlan())
        assert clean.digest() == nulled.digest()

    def test_active_plan_replays_exactly(self):
        _, a = _run(FULL_PLAN)
        _, b = _run(FULL_PLAN)
        assert a.digest() == b.digest()
        assert a.fault_counts() == b.fault_counts()

    def test_active_plan_changes_execution(self):
        _, clean = _run(None)
        _, faulty = _run(FULL_PLAN)
        assert clean.digest() != faulty.digest()

    def test_different_seeds_differ(self):
        _, a = _run(FULL_PLAN, seed=7)
        _, b = _run(FULL_PLAN, seed=8)
        assert a.digest() != b.digest()


class TestInjectorEffects:
    def test_every_injector_fires(self):
        _, stats = _run(FULL_PLAN)
        for key in (
            "spurious_aborts",
            "capacity_shrinks",
            "link_jitter_events",
            "core_stalls",
            "noisy_estimates",
        ):
            assert stats.fault_counts().get(key, 0) > 0, key

    def test_spurious_reason_recorded(self):
        _, stats = _run(FaultPlan(spurious_abort_rate=2e-3))
        reasons = stats.abort_reasons()
        assert reasons.get(AbortReason.SPURIOUS.value, 0) > 0
        assert (
            reasons[AbortReason.SPURIOUS.value]
            == stats.fault_counts()["spurious_aborts"]
        )

    def test_clean_run_has_no_fault_counters(self):
        _, stats = _run(None)
        assert stats.fault_counts() == {}

    def test_reserved_ways_restored_after_drain(self):
        machine, stats = _run(
            FaultPlan(capacity_shrink_prob=0.5, capacity_ways_lost=3)
        )
        assert stats.fault_counts()["capacity_shrinks"] > 0
        # the drain quiesced every transaction, so all pressure is gone
        assert all(m.cache.reserved_ways == 0 for m in machine.mems)

    def test_faults_slow_but_never_corrupt(self):
        """Throughput drops under faults; verification (in _run) and
        invariants still hold — faults cost time, not correctness."""
        _, clean = _run(None)
        _, faulty = _run(FULL_PLAN)
        assert 0 < faulty.ops_completed < clean.ops_completed


class TestNoisyEstimator:
    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            NoisyEstimator(sigma_b=-0.1)

    def test_exact_consumes_no_randomness(self):
        est = NoisyEstimator()
        assert est.exact
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert est.age_hat(100, rng) == 100
        assert est.k_hat(5, rng) == 5
        assert est.mu_hat(250.0, rng) == 250.0
        assert rng.bit_generator.state == before

    def test_noise_respects_floors(self):
        est = NoisyEstimator(sigma_b=2.0, sigma_k=2.0, sigma_mu=2.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert est.age_hat(10, rng) >= 0
            assert est.k_hat(2, rng) >= 2
            assert est.mu_hat(1.0, rng) > 0
