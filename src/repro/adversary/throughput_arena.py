"""Event-driven multi-thread arena (time-resolved Section 6).

The ledger arena scores conflicts out of time; this arena runs ``n``
threads through simulated time on the DES engine: each thread executes
its transaction sequence, an adversary process injects conflicts while
transactions run, aborts restart transactions (optionally with
Corollary 2 backoff), and the measurement is *throughput over time* —
commits per time unit in windows — plus per-transaction Γ.

It complements the other arenas: the ledger arena is the faithful
Corollary 1 accounting; the timed arena drives one transaction; this
one shows the whole system breathing.

Two adversary processes, which bracket the paper's model assumption:

* ``"per_attempt"`` — every attempt is struck with fixed probability at
  a uniform progress point: the conflict *budget* is independent of the
  policy, which is exactly the Section 6 assumption ("the adversary can
  only inflict the same set of conflicts on the offline optimal
  strategy as on the online decision algorithm").  Here the delay
  policies shine, as the theory predicts.
* ``"rate"`` — conflicts arrive as a Poisson process in *time*.  Then
  delaying stretches a transaction's exposure window and attracts more
  conflicts, an effect outside the paper's model; immediate abort gains
  an advantage the competitive analysis does not (and does not claim
  to) cover.  Keeping both modes makes the boundary of the theorem's
  applicability measurable instead of implicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.model import ConflictKind, ConflictModel
from repro.core.policy import DelayPolicy
from repro.distributions.base import LengthDistribution
from repro.errors import InvalidParameterError
from repro.rngutil import spawn_streams
from repro.sim.engine import Simulator

__all__ = ["ThreadState", "ThroughputArena", "ThroughputTrace"]


@dataclass(slots=True)
class ThreadState:
    """One simulated thread's bookkeeping."""

    thread_id: int
    rho: float = 0.0  # current transaction's commit cost
    started_at: float = 0.0  # first attempt of the current transaction
    attempt_started_at: float = 0.0
    commits: int = 0
    aborts: int = 0
    gammas: list[float] = field(default_factory=list)
    grace_until: float = -1.0  # receiver is in a grace period until then
    commit_event: object = None


@dataclass
class ThroughputTrace:
    """Windowed commit counts plus aggregate statistics."""

    window: float
    commits_per_window: list[int]
    total_commits: int
    total_aborts: int
    mean_gamma: float

    def throughput(self) -> np.ndarray:
        return np.asarray(self.commits_per_window, dtype=float) / self.window


class ThroughputArena:
    """Run n threads under an adversary conflict process.

    Parameters
    ----------
    n_threads:
        Thread count (>= 2).
    lengths:
        Transaction-length distribution (commit costs).
    policy:
        Online delay policy shared by every conflict decision.
    kind:
        Conflict-resolution strategy (cost bookkeeping only; the victim
        is the receiver, per requestor-wins, in both cases — the RA
        timing variant lives in the HTM simulator).
    conflict_rate:
        ``"rate"`` mode intensity: expected conflicts per time unit
        across the system (Poisson arrivals picking a random running
        transaction as receiver).
    adversary:
        ``"per_attempt"`` (the paper's fixed-conflict-budget model) or
        ``"rate"`` (time-proportional exposure); see module docstring.
    p_conflict:
        ``"per_attempt"`` mode: probability that an attempt is struck.
    """

    def __init__(
        self,
        n_threads: int,
        lengths: LengthDistribution,
        policy: DelayPolicy,
        *,
        kind: ConflictKind = ConflictKind.REQUESTOR_WINS,
        B: float = 200.0,
        conflict_rate: float = 0.01,
        restart_delay: float = 1.0,
        adversary: str = "per_attempt",
        p_conflict: float = 0.7,
    ) -> None:
        if n_threads < 2:
            raise InvalidParameterError(f"need >= 2 threads, got {n_threads}")
        if conflict_rate <= 0:
            raise InvalidParameterError("conflict_rate must be positive")
        if restart_delay < 0:
            raise InvalidParameterError("restart_delay must be >= 0")
        if adversary not in ("per_attempt", "rate"):
            raise InvalidParameterError(f"unknown adversary mode {adversary!r}")
        if not 0.0 <= p_conflict <= 1.0:
            raise InvalidParameterError("p_conflict must be in [0, 1]")
        self.n_threads = n_threads
        self.lengths = lengths
        self.policy = policy
        self.model = ConflictModel(kind, B, 2)
        self.conflict_rate = conflict_rate
        self.restart_delay = restart_delay
        self.adversary = adversary
        self.p_conflict = p_conflict

    # ------------------------------------------------------------------
    def run(
        self,
        horizon: float,
        *,
        window: float = 1_000.0,
        seed: int | None = None,
    ) -> ThroughputTrace:
        if horizon <= 0 or window <= 0:
            raise InvalidParameterError("horizon and window must be positive")
        sim = Simulator()
        streams = spawn_streams(seed, self.n_threads + 1)
        adversary_rng = streams[-1]
        threads = [ThreadState(i) for i in range(self.n_threads)]
        windows = [0] * int(math.ceil(horizon / window))

        def record_commit(state: ThreadState) -> None:
            state.commits += 1
            state.gammas.append(sim.now - state.started_at)
            idx = min(int(sim.now // window), len(windows) - 1)
            windows[idx] += 1

        def start_transaction(state: ThreadState, fresh: bool) -> None:
            if fresh:
                state.rho = float(
                    self.lengths.sample(1, streams[state.thread_id])[0]
                )
                state.started_at = sim.now
            state.attempt_started_at = sim.now
            state.grace_until = -1.0
            state.commit_event = sim.after(
                state.rho, finish, state, label="commit"
            )
            if self.adversary == "per_attempt":
                rng = streams[state.thread_id]
                if rng.random() < self.p_conflict:
                    at = float(rng.random() * state.rho)
                    attempt_evt = state.commit_event

                    def hit(st=state, evt=attempt_evt):
                        # strike only if the same attempt is still live
                        if st.commit_event is evt and evt is not None:
                            others = [
                                t
                                for t in threads
                                if t is not st and t.commit_event is not None
                            ]
                            if others:
                                req = others[
                                    int(
                                        adversary_rng.integers(0, len(others))
                                    )
                                ]
                                strike(st, req)

                    sim.after(max(at, 1e-9), hit, label="adv-attempt")

        def finish(state: ThreadState) -> None:
            state.commit_event = None
            record_commit(state)
            sim.after(
                self.restart_delay, start_transaction, state, True,
                label="next-txn",
            )

        def abort(state: ThreadState) -> None:
            state.aborts += 1
            if state.commit_event is not None:
                sim.cancel(state.commit_event)
                state.commit_event = None
            sim.after(
                self.restart_delay, start_transaction, state, False,
                label="retry",
            )

        def pause(state: ThreadState, wait: float) -> None:
            """Stall a requestor thread for ``wait`` cycles: its pending
            commit slides right (the thread cannot make progress while
            its coherence request is being delayed)."""
            if state.commit_event is None or wait <= 0:
                return
            finish_at = state.attempt_started_at + state.rho
            sim.cancel(state.commit_event)
            state.attempt_started_at += wait
            state.commit_event = sim.at(
                max(finish_at + wait, sim.now), finish, state, label="commit"
            )

        def adversary_tick() -> None:
            # pick a running receiver not already in a grace period,
            # and a distinct running requestor who will pay the wait
            candidates = [
                t
                for t in threads
                if t.commit_event is not None and t.grace_until < sim.now
            ]
            if len(candidates) >= 2:
                i = int(adversary_rng.integers(0, len(candidates)))
                j = int(adversary_rng.integers(0, len(candidates) - 1))
                if j >= i:
                    j += 1
                strike(candidates[i], candidates[j])
            gap = adversary_rng.exponential(1.0 / self.conflict_rate)
            sim.after(max(gap, 1e-9), adversary_tick, label="adversary")

        def strike(state: ThreadState, requestor: ThreadState) -> None:
            delay = float(self.policy.sample(adversary_rng))
            remaining = (state.attempt_started_at + state.rho) - sim.now
            if remaining <= delay:
                # receiver commits within the grace; the requestor waits
                # out the receiver's remaining time (the cost model's
                # (k-1) * D term)
                state.grace_until = sim.now + remaining
                pause(requestor, remaining)
                return
            # receiver dies at the end of the grace period; the
            # requestor waited the full grace (the (k-1) * x term)
            state.grace_until = sim.now + delay
            pause(requestor, delay)
            doomed_event = state.commit_event

            def expire(st=state, evt=doomed_event):
                if st.commit_event is evt and evt is not None:
                    abort(st)

            sim.after(delay, expire, label="grace-expire")

        for state in threads:
            start_transaction(state, True)
        if self.adversary == "rate":
            sim.after(
                float(adversary_rng.exponential(1.0 / self.conflict_rate)),
                adversary_tick,
                label="adversary",
            )
        sim.run(until=horizon)

        gammas = [g for t in threads for g in t.gammas]
        return ThroughputTrace(
            window=window,
            commits_per_window=windows,
            total_commits=sum(t.commits for t in threads),
            total_aborts=sum(t.aborts for t in threads),
            mean_gamma=float(np.mean(gammas)) if gammas else math.nan,
        )
