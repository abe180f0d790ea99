"""Decision service semantics + the adaptive policy's regime dispatch.

The service half pins the seq-ordered protocol: the in-order submit
decides in its caller and resolves parked successors, out-of-order
arrivals wait in the reorder buffer, duplicates and stale seqs are
rejected, a request whose decision raises fails alone, stop fails
stuck futures instead of hanging, and commit reports are acked but
never logged.  The policy half pins
:class:`repro.htm.conflict_policy.RegimeAdaptiveDelay`'s classification
(bootstrap / mean / rand as the estimates move) and its switch
accounting, which the serve layer surfaces as ``regime_switch`` trace
events and the bench artifact records.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.estimators import EstimateSnapshot
from repro.core.ratios import rw_mean_regime_threshold
from repro.core.requestor_wins import optimal_requestor_wins
from repro.errors import InvalidParameterError, SimulationError
from repro.htm import conflict_policy
from repro.htm.conflict_policy import (
    RegimeAdaptiveDelay,
    RRWMeanDelay,
    ConflictContext,
    _bucket,
    policy_from_name,
)
from repro.htm.params import MachineParams
from repro.serve.loadgen import default_config, generate
from repro.serve.replay import run_replay
from repro.serve.service import (
    CommitReport,
    ConflictRequest,
    Decision,
    DecisionService,
    decision_line,
)


def conflict(seq, *, age=500, k=2, client=1, key=7) -> ConflictRequest:
    return ConflictRequest(
        seq=seq, client_id=client, key=key, tx_age=age, chain_k=k
    )


def run(coro):
    return asyncio.run(coro)


class TestServiceProtocol:
    def test_out_of_order_submission_serves_in_seq_order(self):
        async def scenario():
            service = DecisionService(seed=1)
            await service.start()
            # submit 2 and 1 first; they must wait for 0
            later = [
                asyncio.create_task(service.submit(conflict(2))),
                asyncio.create_task(service.submit(conflict(1))),
            ]
            await asyncio.sleep(0)
            assert all(not t.done() for t in later)
            d0 = await service.submit(conflict(0))
            decisions = [d0] + [await t for t in later]
            await service.stop()
            return service, decisions

        service, decisions = run(scenario())
        assert [d.seq for d in decisions] == [0, 2, 1]
        assert [json.loads(line)["seq"] for line in service.decision_log] == [
            0,
            1,
            2,
        ]

    def test_log_invariant_to_interleaving(self):
        async def serially():
            service = DecisionService(seed=9)
            await service.start()
            for i in range(40):
                await service.submit(conflict(i, age=100 + i, k=2 + i % 3))
            await service.stop()
            return service.decision_log

        async def shuffled():
            service = DecisionService(seed=9)
            await service.start()
            order = [i for i in range(40) if i % 2] + [
                i for i in range(40) if not i % 2
            ]
            tasks = {}
            for i in order:
                tasks[i] = asyncio.create_task(
                    service.submit(conflict(i, age=100 + i, k=2 + i % 3))
                )
                await asyncio.sleep(0)
            await asyncio.gather(*tasks.values())
            await service.stop()
            return service.decision_log

        assert run(serially()) == run(shuffled())

    def test_duplicate_and_stale_seq_rejected(self):
        async def scenario():
            service = DecisionService(seed=1)
            await service.start()
            await service.submit(conflict(0))
            with pytest.raises(InvalidParameterError, match="seq 0"):
                await service.submit(conflict(0))
            pending = asyncio.create_task(service.submit(conflict(5)))
            await asyncio.sleep(0)
            with pytest.raises(InvalidParameterError, match="seq 5"):
                await service.submit(conflict(5))
            for i in (1, 2, 3, 4):
                await service.submit(conflict(i))
            await pending
            await service.stop()

        run(scenario())

    def test_submit_before_start_fails(self):
        async def scenario():
            with pytest.raises(SimulationError, match="not started"):
                await DecisionService().submit(conflict(0))

        run(scenario())

    def test_double_start_fails(self):
        async def scenario():
            service = DecisionService()
            await service.start()
            with pytest.raises(SimulationError, match="already started"):
                await service.start()
            await service.stop()

        run(scenario())

    def test_stop_with_gap_fails_stuck_futures(self):
        async def scenario():
            service = DecisionService(seed=1)
            await service.start()
            stuck = asyncio.create_task(service.submit(conflict(3)))
            await asyncio.sleep(0)
            await service.stop()
            with pytest.raises(SimulationError, match="sequence gap"):
                await stuck

        run(scenario())

    def test_commit_reports_acked_not_logged(self):
        async def scenario():
            service = DecisionService(seed=1)
            await service.start()
            await service.submit(conflict(0))
            ack = await service.submit(
                CommitReport(seq=1, client_id=1, key=7, duration=50.0)
            )
            await service.stop()
            return service, ack

        service, ack = run(scenario())
        assert ack.action == "ack" and ack.grace == 0
        assert service.commits == 1 and service.conflicts == 1
        assert len(service.decision_log) == 1

    def test_latency_histograms_populated(self):
        async def scenario():
            service = DecisionService(seed=1)
            await service.start()
            for i in range(10):
                await service.submit(conflict(i))
            await service.stop()
            return service

        service = run(scenario())
        assert service.decide_latency.n == 10
        assert service.service_latency.n == 10
        assert not math.isnan(service.decide_latency.quantile(0.5))

    @pytest.mark.parametrize("order", [(2, 1, 0), (0, 2, 1)])
    def test_raising_request_fails_alone(self, order):
        """A decision that raises (here ``ConflictContext`` rejects a
        negative age) fails only its own submit, whether it was parked
        and decided by another client's drain or decided in order."""

        async def scenario():
            service = DecisionService(seed=1)
            await service.start()
            tasks = {}
            for seq in order:  # three clients, one event each
                event = conflict(seq, age=-5 if seq == 1 else 500, client=seq)
                tasks[seq] = asyncio.create_task(service.submit(event))
                await asyncio.sleep(0)
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks.values(), return_exceptions=True), 2.0
            )
            with pytest.raises(InvalidParameterError, match="seq 1"):
                await service.submit(conflict(1))  # counted as served
            after = await asyncio.wait_for(service.submit(conflict(3)), 2.0)
            await asyncio.wait_for(service.stop(), 2.0)
            return service, dict(zip(tasks, outcomes)), after

        service, outcomes, after = run(scenario())
        assert outcomes[0].seq == 0 and outcomes[2].seq == 2
        assert isinstance(outcomes[1], InvalidParameterError)
        assert "tx_age" in str(outcomes[1])
        assert after.seq == 3
        assert [json.loads(line)["seq"] for line in service.decision_log] == [
            0,
            2,
            3,
        ]
        assert service.conflicts == 3 and service.decide_latency.n == 3

    def test_in_order_submit_resolves_parked_client(self):
        async def scenario():
            service = DecisionService(seed=1)
            await service.start()
            parked = asyncio.create_task(service.submit(conflict(1)))
            await asyncio.sleep(0)
            assert not parked.done() and service.decision_log == []
            # no serving task: only this caller and the parked client
            assert asyncio.all_tasks() == {asyncio.current_task(), parked}
            d0 = await service.submit(conflict(0))
            # decided by this caller, before the parked client resumes
            assert len(service.decision_log) == 2
            assert service.service_latency.n == 2
            d1 = await parked
            await service.stop()
            return d0, d1

        d0, d1 = run(scenario())
        assert (d0.seq, d1.seq) == (0, 1)

    def test_cancelled_parked_client_does_not_stall(self):
        async def scenario():
            service = DecisionService(seed=1)
            await service.start()
            parked = asyncio.create_task(service.submit(conflict(1)))
            await asyncio.sleep(0)
            parked.cancel()
            with pytest.raises(asyncio.CancelledError):
                await parked
            await service.submit(conflict(0))
            d2 = await asyncio.wait_for(service.submit(conflict(2)), 2.0)
            await service.stop()
            return service, d2

        service, d2 = run(scenario())
        assert d2.seq == 2
        # the cancelled client's event still took its place in order
        assert [json.loads(line)["seq"] for line in service.decision_log] == [
            0,
            1,
            2,
        ]

    def test_closed_loop_counts_every_request(self):
        events = list(generate(3, default_config(quick=True).scaled(300)))

        async def scenario():
            service = DecisionService(seed=3)
            await service.start()

            async def client(mine):
                for event in mine:
                    await service.submit(event)

            await asyncio.gather(*(client(events[i::8]) for i in range(8)))
            await service.stop()
            return service

        service = run(scenario())
        assert service.service_latency.n == len(events)
        assert service.decide_latency.n == len(events)
        assert service.conflicts + service.commits == len(events)

    def test_stop_leaves_no_task_and_refuses_later_submits(self):
        async def scenario():
            before = asyncio.all_tasks()
            service = DecisionService(seed=1)
            await service.start()
            parked = asyncio.create_task(service.submit(conflict(2)))
            for i in range(2):
                await service.submit(conflict(i))
            await parked
            await service.stop()
            assert asyncio.all_tasks() == before
            with pytest.raises(SimulationError, match="not started"):
                await asyncio.wait_for(service.submit(conflict(3)), 2.0)

        run(scenario())

    def test_same_seed_same_decisions(self):
        async def scenario():
            service = DecisionService(seed=5)
            await service.start()
            for i in range(50):
                await service.submit(conflict(i, age=50 + 7 * i))
            await service.stop()
            return service.decision_log

        assert run(scenario()) == run(scenario())


class TestDecisionLine:
    def test_canonical_and_stable(self):
        line = decision_line(Decision(4, "grant", 120, "mean", "X"))
        assert line == (
            '{"action":"grant","grace":120,"policy":"X",'
            '"regime":"mean","seq":4}'
        )

    @settings(max_examples=300, deadline=None)
    @given(
        seq=st.integers(),
        action=st.sampled_from(["grant", "abort", "ack"]) | st.text(),
        grace=st.integers(),
        regime=st.sampled_from(["-", "bootstrap", "rand", "mean"])
        | st.text(),
        policy=st.text(),
    )
    @example(seq=0, action="grant", grace=1, regime="mean",
             policy='P"ol\\icy\u00e9\u2603')
    def test_matches_sorted_json_reference(
        self, seq, action, grace, regime, policy
    ):
        reference = json.dumps(
            {"seq": seq, "action": action, "grace": grace,
             "regime": regime, "policy": policy},
            sort_keys=True,
            separators=(",", ":"),
        )
        line = decision_line(Decision(seq, action, grace, regime, policy))
        assert line == reference


def snap(b=1000.0, k=2.0, mu=100.0, n_conflicts=100, n_commits=100):
    return EstimateSnapshot(b, k, mu, n_conflicts, n_commits)


class TestRegimeAdaptiveDelay:
    def test_registered_by_name(self):
        policy = policy_from_name(
            "DELAY_REGIME", MachineParams(), tuned_cycles=0, mu_cycles=0.0
        )
        assert isinstance(policy, RegimeAdaptiveDelay)

    def test_classify_bootstrap_on_thin_evidence(self):
        policy = RegimeAdaptiveDelay(min_samples=32)
        assert policy.classify(snap(n_conflicts=31)) == "bootstrap"

    def test_classify_rand_without_commits(self):
        policy = RegimeAdaptiveDelay()
        assert policy.classify(snap(n_commits=0, mu=math.nan)) == "rand"

    def test_classify_mean_inside_threshold(self):
        policy = RegimeAdaptiveDelay()
        threshold = rw_mean_regime_threshold(2)
        inside = snap(b=1000.0, mu=0.5 * threshold * 1000.0)
        outside = snap(b=1000.0, mu=2.0 * threshold * 1000.0)
        assert policy.classify(inside) == "mean"
        assert policy.classify(outside) == "rand"

    def test_bootstrap_plays_deterministic_rule(self):
        policy = RegimeAdaptiveDelay(min_samples=1000)
        params = MachineParams()
        ctx = ConflictContext(tx_age=600, chain_k=3, params=params)
        rng = np.random.default_rng(0)
        assert policy.decide(ctx, rng) == ctx.abort_cost // 2
        assert policy.regime == "bootstrap"

    def test_regime_shift_switches_and_counts(self):
        policy = RegimeAdaptiveDelay(
            window=64, min_samples=8, refresh_every=1
        )
        params = MachineParams()
        rng = np.random.default_rng(0)
        ctx = ConflictContext(tx_age=1000, chain_k=2, params=params)
        # short commits: µ̂/B̂ tiny -> mean regime
        for _ in range(64):
            policy.observe_commit(5.0)
        for _ in range(16):
            policy.decide(ctx, rng)
        assert policy.regime == "mean"
        switches_after_mean = policy.regime_switches
        # long commits flood the window: µ̂/B̂ huge -> rand regime
        for _ in range(64):
            policy.observe_commit(1e6)
        policy.decide(ctx, rng)
        assert policy.regime == "rand"
        assert policy.regime_switches == switches_after_mean + 1

    def test_decide_grace_is_bounded_by_abort_cost_scale(self):
        """Sampled graces stay within the optimal density's support
        (a loose sanity bound: < 4x the bucketed abort cost)."""
        policy = RegimeAdaptiveDelay(min_samples=1, refresh_every=1)
        params = MachineParams()
        rng = np.random.default_rng(7)
        ctx = ConflictContext(tx_age=500, chain_k=2, params=params)
        for _ in range(50):
            grace = policy.decide(ctx, rng)
            assert 0 <= grace <= 4 * ctx.abort_cost

    def test_mu_drift_in_mean_regime_builds_one_grid(self, grid_log):
        """µ̂ crossing three µ buckets inside the mean regime at a fixed
        (B, k) builds one grid, and draws, draw for draw, what a cache
        of ``optimal_requestor_wins(B, k, µ-bucket)`` per key draws;
        leaving the regime still switches to the closed-form family."""
        window, draws = 16, 25
        steps = (40, 80, 160, 10**6)  # the last µ leaves the regime
        ctx = ConflictContext(tx_age=900, chain_k=2, params=MachineParams())
        B = _bucket(ctx.abort_cost)
        # the reference: one policy per (B, k, µ-bucket)
        ref_rng = np.random.default_rng(11)
        reference: dict[int, object] = {}
        expected = []
        for mu in steps:
            mean = mu / ctx.abort_cost < rw_mean_regime_threshold(2)
            mu_key = _bucket(mu) if mean else -1
            if mu_key not in reference:
                reference[mu_key] = optimal_requestor_wins(
                    float(B), 2, float(mu_key) if mean else None
                )
            sampler = reference[mu_key]
            expected += [int(sampler.sample(ref_rng)) for _ in range(draws)]
        assert len(reference) == 4
        assert type(reference[-1]).__name__ == "UniformRW"

        grid_log.clear()
        policy = RegimeAdaptiveDelay(
            window=window, min_samples=1, refresh_every=1
        )
        rng = np.random.default_rng(11)
        graces, regimes = [], []
        for mu in steps:
            for _ in range(window):  # the window now holds only µ
                policy.observe_commit(float(mu))
            graces += [policy.decide(ctx, rng) for _ in range(draws)]
            regimes.append(policy.regime)
        assert regimes == ["mean", "mean", "mean", "rand"]
        assert graces == expected
        assert grid_log == [("MeanConstrainedRW", float(B), 2)]
        assert policy.grid_builds == 1

    def test_live_policies_share_one_distribution(self, grid_log):
        """Live policies that draw the same ``(B, k)`` family draw it
        from one distribution object with one grid build, and each
        still reports its own counts; once none holds it, it is freed."""
        ctx = ConflictContext(tx_age=900, chain_k=2, params=MachineParams())
        first, second = (
            RegimeAdaptiveDelay(min_samples=1, refresh_every=1) for _ in range(2)
        )
        rrw_mu = RRWMeanDelay(mu_cycles=40.0)
        draws = []
        for policy in (first, second):
            for _ in range(16):
                policy.observe_commit(40.0)
            draws.append([policy.decide(ctx, np.random.default_rng(5))])
            assert policy.regime == "mean"
        draws.append([rrw_mu.decide(ctx, np.random.default_rng(5))])
        (dist,) = first._dists.values()
        assert list(second._dists.values()) == [dist]
        assert list(rrw_mu._cache.values()) == [dist]
        assert draws[0] == draws[1] == draws[2]
        assert grid_log == [("MeanConstrainedRW", float(_bucket(ctx.abort_cost)), 2)]
        assert first.grid_builds == second.grid_builds == 1
        del first, second, policy, rrw_mu, dist
        gc.collect()
        assert len(conflict_policy._LIVE_DISTS) == 0

    def test_quick_replay_builds_no_grid_twice(self, grid_log):
        """The seed-2018 quick stream builds each (family, B, k) grid
        once, and the policy's own count agrees."""
        report = run_replay(2018, clients=4, quick=True)
        assert grid_log and len(grid_log) == len(set(grid_log))
        assert report.grid_builds == len(grid_log)

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="min_samples"):
            RegimeAdaptiveDelay(min_samples=0)
        with pytest.raises(InvalidParameterError, match="refresh_every"):
            RegimeAdaptiveDelay(refresh_every=0)
