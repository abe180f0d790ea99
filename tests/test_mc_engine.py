"""Batched Monte-Carlo engine vs the scalar golden reference.

The contract (docs/PERFORMANCE.md): for any :class:`TrialProgram`, any
batch size, any shard count, and any ``--jobs``, the SoA lockstep
engine produces rows *bit-identical* to per-trial
``TimedArena.run_transaction`` + ``BackoffPolicy`` executions fed from
the same round-major draw layout.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.arena import TimedArena
from repro.errors import InvalidParameterError, SimulationError
from repro.experiments.ablations import run_abl_backoff
from repro.experiments.corollary import run_cor2
from repro.parallel import SupervisedPool
from repro.sim.mc import (
    DEFAULT_SHARDS,
    TrialProgram,
    TrialResults,
    run_trials,
    split_trials,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def trial_programs(draw) -> TrialProgram:
    """Random but well-formed programs, bounded so the scalar reference
    stays fast (max_attempts caps runaway exhaustion cases)."""
    rho = draw(st.floats(min_value=10.0, max_value=5000.0, **finite))
    gamma = draw(st.integers(min_value=0, max_value=4))
    conflicts = tuple(
        (
            rho * draw(st.floats(min_value=0.01, max_value=1.0, **finite)),
            draw(st.integers(min_value=2, max_value=6)),
        )
        for _ in range(gamma)
    )
    style = draw(st.sampled_from(["mult", "add", "both"]))
    factor = (
        1.0
        if style == "add"
        else draw(st.floats(min_value=1.25, max_value=3.0, **finite))
    )
    increment = (
        0.0
        if style == "mult"
        else draw(st.floats(min_value=1.0, max_value=128.0, **finite))
    )
    return TrialProgram(
        rho=rho,
        conflicts=conflicts,
        k=draw(st.integers(min_value=2, max_value=5)),
        B0=draw(st.floats(min_value=1.0, max_value=512.0, **finite)),
        factor=factor,
        increment=increment,
        max_B=draw(st.sampled_from([math.inf, 1e6, 4096.0])),
        max_attempts=draw(st.integers(min_value=1, max_value=50)),
    )


def cor2_program(y: float = 4000.0, gamma: int = 6, **kwargs) -> TrialProgram:
    conflicts = tuple(
        (y * (1.0 - (i + 0.5) / gamma) + 1.0, 2) for i in range(gamma)
    )
    return TrialProgram(rho=y, conflicts=conflicts, k=2, B0=64.0, **kwargs)


# ---------------------------------------------------------------------------
# the equivalence suite: batch == scalar, bit for bit
# ---------------------------------------------------------------------------


class TestBatchScalarEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        program=trial_programs(),
        n=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batch_matches_scalar_reference(self, program, n, seed):
        batch = run_trials(program, n, seed=seed, engine="batch")
        scalar = run_trials(program, n, seed=seed, engine="scalar")
        assert len(batch) == len(scalar) == n
        assert batch.equals(scalar)

    @settings(max_examples=15, deadline=None)
    @given(
        program=trial_programs(),
        n=st.integers(min_value=1, max_value=40),
        n_shards=st.integers(min_value=1, max_value=11),
    )
    def test_equivalence_at_any_shard_count(self, program, n, n_shards):
        batch = run_trials(program, n, seed=7, engine="batch", n_shards=n_shards)
        scalar = run_trials(
            program, n, seed=7, engine="scalar", n_shards=n_shards
        )
        assert batch.equals(scalar)

    @pytest.mark.parametrize("n", [1, 7, 4096])
    def test_cor2_shape_at_batch_sizes(self, n):
        """The experiment-shaped program at the satellite's batch sizes."""
        program = cor2_program()
        batch = run_trials(program, n, seed=11, engine="batch")
        scalar = run_trials(program, n, seed=11, engine="scalar")
        assert batch.equals(scalar)
        assert bool(batch.committed.all())

    def test_exhaustion_path(self):
        """max_attempts reached: attempts pegged, committed False, B kept
        at its post-final-abort value (identical in both engines)."""
        program = cor2_program(max_attempts=2)
        batch = run_trials(program, 64, seed=5, engine="batch")
        scalar = run_trials(program, 64, seed=5, engine="scalar")
        assert batch.equals(scalar)
        exhausted = ~batch.committed
        assert exhausted.any()
        assert (batch.attempts[exhausted] == 2).all()
        assert (batch.final_B[exhausted] > program.B0).all()

    def test_empty_conflict_plan_commits_first_attempt(self):
        program = TrialProgram(rho=100.0, conflicts=())
        res = run_trials(program, 16, seed=3)
        assert (res.attempts == 1).all()
        assert res.committed.all()
        assert np.array_equal(res.total_time, np.full(16, 100.0))
        assert res.equals(run_trials(program, 16, seed=3, engine="scalar"))

    def test_max_B_cap_and_additive_growth(self):
        program = cor2_program(
            y=300.0, gamma=2, factor=1.0, increment=64.0, max_B=512.0
        )
        batch = run_trials(program, 256, seed=9, engine="batch")
        scalar = run_trials(program, 256, seed=9, engine="scalar")
        assert batch.equals(scalar)
        assert batch.final_B.max() <= 512.0


# ---------------------------------------------------------------------------
# determinism: seeds, shards, pools
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_rows(self):
        program = cor2_program()
        assert run_trials(program, 64, seed=1).equals(
            run_trials(program, 64, seed=1)
        )

    def test_different_seed_different_rows(self):
        program = cor2_program()
        a = run_trials(program, 256, seed=1)
        b = run_trials(program, 256, seed=2)
        assert not a.equals(b)

    def test_seedseq_input_is_not_mutated(self):
        """run_trials must be pure in its SeedSequence argument: calling
        it twice with the same sequence yields the same rows (plain
        ``spawn`` would advance the child counter)."""
        program = cor2_program()
        root = np.random.SeedSequence([1, 2, 3])
        first = run_trials(program, 32, seed=root)
        second = run_trials(program, 32, seed=root)
        assert first.equals(second)

    def test_path_selects_the_stream(self):
        program = cor2_program()
        a = run_trials(program, 64, seed=1, path=("cor2", 500))
        b = run_trials(program, 64, seed=1, path=("cor2", 4000))
        assert not a.equals(b)

    def test_pool_rows_identical_to_serial(self):
        """jobs 1 vs 4: shard placement never changes a row."""
        program = cor2_program()
        serial = run_trials(program, 128, seed=4)
        with_serial_pool = run_trials(
            program, 128, seed=4, pool=SupervisedPool(1)
        )
        with_process_pool = run_trials(
            program, 128, seed=4, pool=SupervisedPool(4)
        )
        assert serial.equals(with_serial_pool)
        assert serial.equals(with_process_pool)

    def test_live_generator_rejected(self):
        with pytest.raises(InvalidParameterError, match="Generator"):
            run_trials(cor2_program(), 8, seed=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# experiment-level seed stability: scalar vs batch, jobs 1 vs 4
# ---------------------------------------------------------------------------


class TestExperimentSeedStability:
    @pytest.mark.parametrize("trials", [1, 7, 4096])
    def test_cor2_rows_scalar_vs_batch(self, trials):
        kwargs = dict(trials=trials, seed=13)
        assert run_cor2(engine="batch", **kwargs) == run_cor2(
            engine="scalar", **kwargs
        )

    @pytest.mark.parametrize("trials", [1, 7, 4096])
    def test_abl_backoff_rows_scalar_vs_batch(self, trials):
        kwargs = dict(trials=trials, seed=13)
        assert run_abl_backoff(engine="batch", **kwargs) == run_abl_backoff(
            engine="scalar", **kwargs
        )

    def test_cor2_rows_jobs_1_vs_4(self):
        serial = run_cor2(trials=96, seed=13)
        parallel = run_cor2(trials=96, seed=13, pool=SupervisedPool(4))
        assert serial == parallel

    def test_abl_backoff_rows_jobs_1_vs_4(self):
        serial = run_abl_backoff(trials=96, seed=13)
        parallel = run_abl_backoff(trials=96, seed=13, pool=SupervisedPool(4))
        assert serial == parallel


# ---------------------------------------------------------------------------
# program / engine validation and plumbing
# ---------------------------------------------------------------------------


class TestValidation:
    def test_bad_rho(self):
        with pytest.raises(InvalidParameterError, match="rho"):
            TrialProgram(rho=0.0, conflicts=())

    def test_conflict_outside_rho(self):
        with pytest.raises(SimulationError, match="remaining"):
            TrialProgram(rho=10.0, conflicts=((11.0, 2),))

    def test_bad_chain_size(self):
        with pytest.raises(SimulationError, match="chain size"):
            TrialProgram(rho=10.0, conflicts=((5.0, 1),))

    def test_bad_policy_k(self):
        with pytest.raises(InvalidParameterError, match="policy k"):
            TrialProgram(rho=10.0, conflicts=(), k=1)

    def test_bad_B0(self):
        with pytest.raises(InvalidParameterError, match="B0"):
            TrialProgram(rho=10.0, conflicts=(), B0=0.0)

    def test_degenerate_growth(self):
        with pytest.raises(InvalidParameterError, match="backoff"):
            TrialProgram(rho=10.0, conflicts=(), factor=1.0, increment=0.0)

    def test_bad_max_attempts(self):
        with pytest.raises(InvalidParameterError, match="max_attempts"):
            TrialProgram(rho=10.0, conflicts=(), max_attempts=0)

    def test_conflicts_normalized_chronological(self):
        program = TrialProgram(
            rho=100.0, conflicts=((10.0, 2), (90.0, 3), (50.0, 2))
        )
        assert program.conflicts == ((90.0, 3), (50.0, 2), (10.0, 2))

    def test_bad_engine(self):
        with pytest.raises(InvalidParameterError, match="engine"):
            run_trials(cor2_program(), 8, engine="vectorized")

    def test_negative_trials(self):
        with pytest.raises(InvalidParameterError, match="n_trials"):
            run_trials(cor2_program(), -1)

    def test_bad_shards(self):
        with pytest.raises(InvalidParameterError, match="n_shards"):
            run_trials(cor2_program(), 8, n_shards=0)


class TestPlumbing:
    def test_split_trials_is_contiguous_even(self):
        assert split_trials(10, 4) == [3, 3, 2, 2]
        assert split_trials(3, 8) == [1, 1, 1, 0, 0, 0, 0, 0]
        assert split_trials(0, 2) == [0, 0]
        assert sum(split_trials(4096, DEFAULT_SHARDS)) == 4096

    def test_zero_trials(self):
        res = run_trials(cor2_program(), 0, seed=1)
        assert len(res) == 0
        assert res.attempts.dtype == np.int64

    def test_records_match_run_transaction_fields(self):
        res = run_trials(cor2_program(), 5, seed=2)
        records = res.records()
        assert len(records) == 5
        for j, rec in enumerate(records):
            assert rec.attempts == int(res.attempts[j])
            assert rec.committed == bool(res.committed[j])
            assert rec.total_time == float(res.total_time[j])

    def test_concat_preserves_order(self):
        a = run_trials(cor2_program(), 6, seed=3)
        parts = TrialResults.concat(
            [
                TrialResults(
                    attempts=a.attempts[:2],
                    total_time=a.total_time[:2],
                    committed=a.committed[:2],
                    waiter_delay=a.waiter_delay[:2],
                    final_B=a.final_B[:2],
                ),
                TrialResults(
                    attempts=a.attempts[2:],
                    total_time=a.total_time[2:],
                    committed=a.committed[2:],
                    waiter_delay=a.waiter_delay[2:],
                    final_B=a.final_B[2:],
                ),
            ]
        )
        assert parts.equals(a)

    def test_timed_arena_run_batch_honors_attempt_cap(self):
        arena = TimedArena(max_attempts=2)
        res = arena.run_batch(cor2_program(), 32, seed=5)
        assert res.attempts.max() <= 2

    def test_arena_run_batch_matches_run_trials(self):
        program = cor2_program()
        direct = run_trials(program, 32, seed=6)
        via_arena = TimedArena().run_batch(program, 32, seed=6)
        assert direct.equals(via_arena)
