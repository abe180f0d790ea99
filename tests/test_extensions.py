"""Tests for the extension features: moment-constrained adversaries,
requestor-aborts / hybrid HTM resolution, and the online profiler
(Section 5.2's commit feed into RegimeAdaptiveDelay)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.estimators import offline_window_mean
from repro.core.model import ConflictKind, ConflictModel
from repro.core.moments import (
    MomentConstraint,
    mean_variance_ratio,
    moment_constrained_ratio,
)
from repro.core.requestor_wins import MeanConstrainedRW, UniformRW
from repro.core.verify import competitive_ratio, constrained_competitive_ratio
from repro.errors import InvalidParameterError
from repro.htm import (
    REMAINING_FRACTION,
    HybridDelay,
    Machine,
    MachineParams,
    NoDelay,
    RandDelay,
    RegimeAdaptiveDelay,
    RequestorAbortsDelay,
    commit_feed,
)
from repro.htm.conflict_policy import (
    ConflictContext,
    policy_from_name,
)
from repro.workloads import CounterWorkload, QueueWorkload, TxAppWorkload

B = 100.0
RW = ConflictModel(ConflictKind.REQUESTOR_WINS, B, 2)


class TestMomentConstraints:
    def test_mean_only_matches_envelope(self):
        policy = MeanConstrainedRW(B, 10.0)
        lp = moment_constrained_ratio(policy, RW, [MomentConstraint(1, 10.0)])
        envelope = constrained_competitive_ratio(policy, RW, 10.0).ratio
        assert lp == pytest.approx(envelope, rel=2e-3)

    def test_variance_tightens_adversary(self):
        """Adding a (finite) variance constraint can only reduce the
        best adversary's value."""
        policy = UniformRW(B, 2)
        mu = 30.0
        mean_only = moment_constrained_ratio(
            policy, RW, [MomentConstraint(1, mu)]
        )
        with_var = mean_variance_ratio(policy, RW, mu, variance=25.0)
        assert with_var <= mean_only + 1e-6

    def test_tiny_variance_pins_near_point_mass(self):
        """Variance ~0 pins the adversary to (grid points around) D=mu.

        Exactly zero variance is infeasible on a discrete grid unless mu
        is a grid point, so we use a variance at grid-spacing scale.
        """
        policy = UniformRW(B, 2)
        mu = 40.0
        lp = mean_variance_ratio(policy, RW, mu, variance=1.0, grid=4096)
        from repro.core.verify import expected_cost

        point = expected_cost(policy, RW, mu) / RW.opt(mu)
        assert lp == pytest.approx(point, rel=0.05)

    def test_infeasible_returns_nan(self):
        policy = UniformRW(B, 2)
        # mean tiny but second moment enormous relative to grid support
        value = moment_constrained_ratio(
            policy,
            RW,
            [MomentConstraint(1, 1.0), MomentConstraint(2, 1e12)],
        )
        assert math.isnan(value)

    def test_validation(self):
        policy = UniformRW(B, 2)
        with pytest.raises(InvalidParameterError):
            moment_constrained_ratio(policy, RW, [])
        with pytest.raises(InvalidParameterError):
            moment_constrained_ratio(
                policy, RW, [MomentConstraint(1, 1.0), MomentConstraint(1, 2.0)]
            )
        with pytest.raises(InvalidParameterError):
            MomentConstraint(0, 1.0)
        with pytest.raises(InvalidParameterError):
            mean_variance_ratio(policy, RW, 10.0, -1.0)

    def test_unconstrained_policy_bounded_by_sup(self):
        policy = UniformRW(B, 2)
        sup = competitive_ratio(policy, RW).ratio
        lp = moment_constrained_ratio(policy, RW, [MomentConstraint(1, 50.0)])
        assert lp <= sup + 1e-6


def run_machine(policy_factory, workload, n_cores=8, seed=1, horizon=150_000.0):
    machine = Machine(MachineParams(n_cores=n_cores), policy_factory)
    machine.load(workload, seed=seed)
    stats = machine.run(horizon)
    workload.verify(machine)
    machine.check_invariants()
    return machine, stats


class TestRequestorAbortsHTM:
    def test_nacks_abort_requestors(self):
        workload = QueueWorkload()
        machine, stats = run_machine(
            lambda i: RequestorAbortsDelay(), workload
        )
        reasons = stats.abort_reasons()
        assert stats.total("nacks_sent") > 0
        assert reasons.get("nacked", 0) == stats.total("nacks_sent")
        # receivers never die of timeouts in pure-RA mode
        assert reasons.get("conflict_timeout", 0) == 0

    def test_correctness_under_ra(self):
        for workload in (CounterWorkload(), TxAppWorkload(work_cycles=50)):
            run_machine(lambda i: RequestorAbortsDelay(), workload, seed=3)

    def test_ra_policy_attributes(self, rng):
        policy = RequestorAbortsDelay()
        assert policy.resolution == "requestor_aborts"
        ctx = ConflictContext(50, 2, MachineParams())
        delay = policy.decide(ctx, rng)
        assert 1 <= delay <= ctx.abort_cost * 1.3

    def test_ra_mu_validation(self):
        with pytest.raises(InvalidParameterError):
            RequestorAbortsDelay(mu_cycles=-1.0)


class TestHybridHTM:
    def test_resolution_by_chain_size(self):
        params = MachineParams()
        assert HybridDelay.resolution(ConflictContext(10, 2, params)) == (
            "requestor_aborts"
        )
        assert HybridDelay.resolution(ConflictContext(10, 3, params)) == (
            "requestor_wins"
        )

    def test_correctness_under_hybrid(self):
        for workload in (QueueWorkload(), TxAppWorkload(work_cycles=50)):
            machine, stats = run_machine(lambda i: HybridDelay(), workload)
            assert stats.ops_completed > 50

    def test_hybrid_uses_both_mechanisms(self):
        workload = QueueWorkload()
        machine, stats = run_machine(lambda i: HybridDelay(), workload)
        reasons = stats.abort_reasons()
        # k=2 conflicts -> NACKs; deeper chains -> receiver timeouts
        assert stats.total("nacks_sent") > 0

    def test_policy_from_name(self):
        params = MachineParams()
        assert isinstance(policy_from_name("DELAY_RA", params), RequestorAbortsDelay)
        assert isinstance(policy_from_name("DELAY_HYBRID", params), HybridDelay)


class TestProfiler:
    """Section 5.2's profiler: one RegimeAdaptiveDelay per machine,
    shared by its cores and fed every commit through commit_feed."""

    def test_mu_estimate_half_duration(self):
        policy = RegimeAdaptiveDelay()
        feed = commit_feed(policy)
        assert math.isnan(policy.estimator.snapshot().mu_hat)
        for d in (100.0, 200.0):
            feed(d)
        snap = policy.estimator.snapshot()
        assert snap.mu_hat == REMAINING_FRACTION * 150.0 == 75.0
        assert snap.n_commits == 2

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            commit_feed(RegimeAdaptiveDelay())(-1.0)
        with pytest.raises(InvalidParameterError):
            RegimeAdaptiveDelay(min_samples=0)

    def test_adaptive_in_machine_profiles_commits(self):
        policy = RegimeAdaptiveDelay()
        durations = []
        machine = Machine(MachineParams(n_cores=8), lambda i: policy)
        machine.commit_observers += [commit_feed(policy), durations.append]
        workload = TxAppWorkload(work_cycles=100)
        machine.load(workload, seed=1)
        stats = machine.run(150_000.0)
        workload.verify(machine)
        assert len(durations) == stats.tx_committed
        # enough evidence to leave Theorem 4's cold-start rule
        assert policy.regime != "bootstrap"
        window = policy.estimator.window
        assert policy.estimator.snapshot().mu_hat == pytest.approx(
            REMAINING_FRACTION * offline_window_mean(durations, window),
            rel=1e-12,
        )
        # mean tx duration must exceed the body work
        assert np.mean(durations) > 100.0


class TestGreedyCM:
    def test_older_receiver_nacks(self):
        from repro.htm import GreedyCM

        params = MachineParams()
        assert GreedyCM.resolution(
            ConflictContext(100, 2, params, requestor_age=50)
        ) == "requestor_aborts"
        assert GreedyCM.resolution(
            ConflictContext(50, 2, params, requestor_age=100)
        ) == "requestor_wins"

    def test_irrevocable_requestor_wins(self):
        from repro.htm import GreedyCM

        params = MachineParams()
        assert GreedyCM.resolution(
            ConflictContext(100, 2, params, requestor_age=None)
        ) == "requestor_wins"

    def test_never_waits(self, rng):
        from repro.htm import GreedyCM

        ctx = ConflictContext(100, 2, MachineParams(), requestor_age=10)
        assert GreedyCM().decide(ctx, rng) == 0

    def test_correct_in_machine(self):
        from repro.htm import GreedyCM

        for workload in (CounterWorkload(), QueueWorkload()):
            machine, stats = run_machine(lambda i: GreedyCM(), workload)
            assert stats.ops_completed > 50

    def test_policy_from_name(self):
        from repro.htm import GreedyCM

        assert isinstance(
            policy_from_name("GREEDY_CM", MachineParams()), GreedyCM
        )

    def test_requestor_age_validation(self):
        with pytest.raises(InvalidParameterError):
            ConflictContext(10, 2, MachineParams(), requestor_age=-1)


class TestResolutionAblation:
    def test_registry_entry(self):
        from repro.experiments import EXPERIMENTS, run_experiment

        assert "abl_htm_resolution" in EXPERIMENTS
        result = run_experiment("abl_htm_resolution", quick=True, seed=1)
        resolutions = {r["resolution"] for r in result.rows}
        assert "RA (NACK)" in resolutions
        assert "HYBRID" in resolutions
        assert "GREEDY_CM (global)" in resolutions
        assert all(r["ops"] > 0 for r in result.rows)


class TestExtensionPanels:
    @pytest.mark.slow
    def test_ext_bank(self):
        from repro.experiments import run_experiment

        result = run_experiment("ext_bank", quick=True, seed=1)
        policies = {r["policy"] for r in result.rows}
        assert policies == {
            "NO_DELAY",
            "DELAY_RAND",
            "DELAY_RA",
            "DELAY_HYBRID",
            "GREEDY_CM",
        }
        assert all(r["ops"] > 0 for r in result.rows)

    @pytest.mark.slow
    def test_ext_listset(self):
        from repro.experiments import run_experiment

        result = run_experiment("ext_listset", quick=True, seed=1)
        assert len(result.rows) == 2 * 5  # 2 thread points x 5 policies
