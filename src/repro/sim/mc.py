"""Batched struct-of-arrays Monte-Carlo engine for simulated trials.

The Corollary 2 progress experiments and the backoff ablations drive
thousands of *independent* transactions through
:meth:`~repro.adversary.arena.TimedArena.run_transaction` — a scalar
Python loop per trial.  This module executes the same trials as a
struct-of-arrays (SoA) program: one :class:`TrialProgram` describes the
adversary's per-attempt conflict plan and the backoff parameters, and
:func:`run_trials` advances *all* trials in lockstep attempt rounds —
delay draws as one vectorized quantile transform per conflict slot,
abort/commit resolution as boolean masks, Corollary 2 B-growth as a
masked in-place update on a ``B`` vector, attempts/time/waiter-delay
counters as vector accumulations.

Byte-identity contract
----------------------

The batched engine is *bit-identical* to the scalar golden reference
(``engine="scalar"``, which literally runs ``TimedArena.run_transaction``
with a :class:`~repro.core.backoff.BackoffPolicy`), because both engines
consume uniforms from the same positional **round-major draw layout**:

* Trials are split into ``n_shards`` contiguous shards; shard ``s``
  draws from the ``s``-th :class:`~numpy.random.SeedSequence` child of
  the root sequence, so the stream tree depends only on
  ``(seed, path, n_shards)`` — never on ``--jobs`` or batch internals.
* Within a shard of ``n`` trials facing ``m`` conflict slots per
  attempt, uniforms are generated lazily in round-major blocks:
  block ``r`` is ``gen.random((m, n))``, and ``block[r][c, j]`` is the
  uniform trial ``j`` uses at conflict slot ``c`` of attempt ``r + 1``
  — whether or not the trial consumes it (committed, already-aborted,
  or exhausted trials simply leave their draws unused).

Because a draw's position depends only on ``(r, c, j)`` and not on any
other trial's history, the scalar reference (replayed over the same
blocks) and the lockstep batched program see identical uniforms, and
every derived quantity is computed with the same IEEE-754 operation
order (``delay = u * (B/(k-1))``; ``B = min(B*factor + increment,
max_B)``; per-trial left-fold accumulation).  The hypothesis suite in
``tests/test_mc_engine.py`` pins ``batch == scalar`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.adversary.arena import AttemptRecord, TimedArena
from repro.core.backoff import BackoffPolicy
from repro.core.requestor_wins import UniformRW
from repro.errors import InvalidParameterError, SimulationError
from repro.rngutil import seedseq_for

__all__ = [
    "TrialProgram",
    "TrialResults",
    "run_trials",
    "DEFAULT_SHARDS",
    "split_trials",
]

#: Default shard count.  Like the fig2 grids, the shard count is part of
#: a result's identity: ``--jobs`` only changes how many shards execute
#: concurrently, never which streams exist.
DEFAULT_SHARDS = 8

_ENGINES = ("batch", "scalar")


@dataclass(frozen=True)
class TrialProgram:
    """One transaction's adversary plan + backoff parameters, applied to
    every trial in a batch.

    ``conflicts`` is the per-attempt plan as ``(remaining, k)`` pairs
    with ``0 < remaining <= rho``; it is normalized to chronological
    order (decreasing remaining) exactly as
    :meth:`TimedArena.run_transaction` strikes them.  ``k`` is the chain
    size the uniform delay policy assumes (the experiment-level ``k``
    that parameterizes ``UniformRW(B, k)``).
    """

    rho: float
    conflicts: tuple[tuple[float, int], ...]
    k: int = 2
    B0: float = 64.0
    factor: float = 2.0
    increment: float = 0.0
    max_B: float = math.inf
    max_attempts: int = 10_000

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise InvalidParameterError(f"rho must be positive, got {self.rho}")
        normalized = []
        for remaining, k_c in self.conflicts:
            if not 0.0 < remaining <= self.rho:
                raise SimulationError(
                    f"conflict remaining {remaining} outside (0, {self.rho}]"
                )
            if k_c < 2:
                raise SimulationError(f"chain size {k_c} < 2")
            normalized.append((float(remaining), int(k_c)))
        if self.k < 2:
            raise InvalidParameterError(f"policy k must be >= 2, got {self.k}")
        if self.B0 <= 0 or not math.isfinite(self.B0):
            raise InvalidParameterError(
                f"B0 must be finite and positive, got {self.B0}"
            )
        if self.factor < 1.0:
            raise InvalidParameterError(f"factor must be >= 1, got {self.factor}")
        if self.increment < 0.0:
            raise InvalidParameterError(
                f"increment must be >= 0, got {self.increment}"
            )
        if self.factor == 1.0 and self.increment == 0.0:
            raise InvalidParameterError(
                "backoff needs factor > 1 or increment > 0"
            )
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        # chronological strike order, identical to run_transaction's sort
        normalized.sort(key=lambda rk: -rk[0])
        object.__setattr__(self, "conflicts", tuple(normalized))


@dataclass
class TrialResults:
    """Struct-of-arrays outcome of a batch of trials (one row per trial,
    fields mirroring :class:`~repro.adversary.arena.AttemptRecord`)."""

    attempts: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    total_time: np.ndarray = field(default_factory=lambda: np.zeros(0))
    committed: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))
    waiter_delay: np.ndarray = field(default_factory=lambda: np.zeros(0))
    final_B: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return self.attempts.shape[0]

    @classmethod
    def empty(cls, n: int) -> "TrialResults":
        return cls(
            attempts=np.zeros(n, dtype=np.int64),
            total_time=np.zeros(n, dtype=float),
            committed=np.zeros(n, dtype=bool),
            waiter_delay=np.zeros(n, dtype=float),
            final_B=np.zeros(n, dtype=float),
        )

    @classmethod
    def concat(cls, parts: Sequence["TrialResults"]) -> "TrialResults":
        return cls(
            attempts=np.concatenate([p.attempts for p in parts]),
            total_time=np.concatenate([p.total_time for p in parts]),
            committed=np.concatenate([p.committed for p in parts]),
            waiter_delay=np.concatenate([p.waiter_delay for p in parts]),
            final_B=np.concatenate([p.final_B for p in parts]),
        )

    def records(self) -> list[AttemptRecord]:
        """Expand back to per-trial :class:`AttemptRecord` rows."""
        return [
            AttemptRecord(
                attempts=int(self.attempts[j]),
                total_time=float(self.total_time[j]),
                committed=bool(self.committed[j]),
                waiter_delay=float(self.waiter_delay[j]),
                final_B=float(self.final_B[j]),
            )
            for j in range(len(self))
        ]

    def equals(self, other: "TrialResults") -> bool:
        """Exact (bitwise) equality, the contract the tests pin."""
        return (
            np.array_equal(self.attempts, other.attempts)
            and np.array_equal(self.total_time, other.total_time)
            and np.array_equal(self.committed, other.committed)
            and np.array_equal(self.waiter_delay, other.waiter_delay)
            and np.array_equal(self.final_B, other.final_B, equal_nan=True)
        )


class _DrawBlocks:
    """Lazily-materialized round-major uniforms for one shard.

    ``round(r)`` is the ``(m, n)`` block of attempt ``r + 1``: row ``c``
    holds the slot-``c`` uniforms of every trial.  Blocks are generated
    on demand in round order from a single shard generator, so the
    layout depends only on the stream — not on which trials are still
    alive or how they are batched.
    """

    __slots__ = ("_gen", "_m", "_n", "_blocks")

    def __init__(self, gen: np.random.Generator, m: int, n: int) -> None:
        self._gen = gen
        self._m = m
        self._n = n
        self._blocks: list[np.ndarray] = []

    def round(self, r: int) -> np.ndarray:
        while len(self._blocks) <= r:
            self._blocks.append(self._gen.random((self._m, self._n)))
        return self._blocks[r]


class _CachedUniformRW:
    """Memoized ``B -> UniformRW(B, k)`` factory.

    ``UniformRW`` is stateless, so one instance per distinct ``B`` can
    be shared by every trial in a shard and by every ``BackoffPolicy``
    rebuild on abort — this is the hoist that stops the scalar loops
    from reconstructing the distribution 300-400x per row.
    """

    __slots__ = ("k", "_cache")

    def __init__(self, k: int) -> None:
        self.k = k
        self._cache: dict[float, UniformRW] = {}

    def __call__(self, B: float) -> UniformRW:
        pol = self._cache.get(B)
        if pol is None:
            pol = UniformRW(B, self.k)
            self._cache[B] = pol
        return pol


class _ReplayBackoff(BackoffPolicy):
    """A real ``BackoffPolicy`` whose uniforms come from the shard's
    round-major draw blocks instead of a live generator.

    ``sample`` reads ``blocks.round(r)[c, j]`` for this trial's column
    ``j`` and advances the slot cursor; ``record_abort`` advances the
    round cursor (attempts only ever advance through ``record_abort``,
    so the cursors track ``run_transaction`` exactly).  Everything else
    — B growth, inner-policy rebuild, ``current_B`` — is the stock
    ``BackoffPolicy`` state machine, which is what makes this path the
    golden *scalar* reference rather than a reimplementation.
    """

    def __init__(
        self,
        factory: _CachedUniformRW,
        program: TrialProgram,
        blocks: _DrawBlocks,
        column: int,
    ) -> None:
        super().__init__(
            factory,
            program.B0,
            factor=program.factor,
            increment=program.increment,
            max_B=program.max_B,
        )
        self._blocks = blocks
        self._col = column
        self._round = 0
        self._slot = 0

    def sample(self, rng: np.random.Generator | int | None = None) -> float:
        u = self._blocks.round(self._round)[self._slot, self._col]
        self._slot += 1
        return float(self._inner.ppf(u))

    def record_abort(self) -> None:
        super().record_abort()
        self._round += 1
        self._slot = 0


def split_trials(n_trials: int, n_shards: int) -> list[int]:
    """Contiguous even split: the first ``n_trials % n_shards`` shards
    take one extra trial (``np.array_split`` semantics)."""
    base, extra = divmod(n_trials, n_shards)
    return [base + (1 if s < extra else 0) for s in range(n_shards)]


def _spawn_children(
    root: np.random.SeedSequence, n: int
) -> list[np.random.SeedSequence]:
    """``root.spawn(n)`` without mutating ``root``.

    ``SeedSequence.spawn`` advances an internal child counter, so a
    caller-supplied sequence would yield *different* streams on every
    call.  Building the children positionally keeps :func:`run_trials`
    pure: for a fresh sequence the result is identical to ``spawn(n)``.
    """
    return [
        np.random.SeedSequence(
            entropy=root.entropy,
            spawn_key=tuple(root.spawn_key) + (i,),
            pool_size=root.pool_size,
        )
        for i in range(n)
    ]


def _replay_scalar(
    program: TrialProgram, n: int, blocks: _DrawBlocks
) -> TrialResults:
    """Golden reference: drive each trial through the *real*
    ``TimedArena.run_transaction`` + ``BackoffPolicy``, replaying the
    shard's draw layout."""
    arena = TimedArena(max_attempts=program.max_attempts)
    factory = _CachedUniformRW(program.k)
    conflicts = list(program.conflicts)
    out = TrialResults.empty(n)
    for j in range(n):
        policy = _ReplayBackoff(factory, program, blocks, j)
        rec = arena.run_transaction(program.rho, conflicts, policy, rng=0)
        out.attempts[j] = rec.attempts
        out.total_time[j] = rec.total_time
        out.committed[j] = rec.committed
        out.waiter_delay[j] = rec.waiter_delay
        out.final_B[j] = rec.final_B
    return out


def _replay_batch(
    program: TrialProgram, n: int, blocks: _DrawBlocks
) -> TrialResults:
    """SoA lockstep execution over the same draw layout.

    Every array op below replicates the scalar path's IEEE-754
    operation order exactly (see the ``tests/test_mc_engine.py``
    equivalence suite): ``delay = u * (B/(k-1))``; abort time
    ``(rho - remaining) + delay`` added in one expression; ``B`` growth
    ``min(B*factor + increment, max_B)`` after every aborted attempt.
    """
    out = TrialResults.empty(n)
    kp = program.k
    B = np.full(n, program.B0, dtype=float)
    active = np.ones(n, dtype=bool)
    idx = np.arange(n)
    r = 0
    while r < program.max_attempts and active.any():
        draws = blocks.round(r)
        running = active.copy()  # still un-aborted within this attempt
        for c, (remaining, k_c) in enumerate(program.conflicts):
            live = idx[running]
            if live.size == 0:
                break
            delay = draws[c, live] * (B[live] / (kp - 1))
            survived = remaining <= delay
            surv = live[survived]
            abrt = live[~survived]
            # survivors: k-1 waiters stall for the receiver's remaining run
            out.waiter_delay[surv] += (k_c - 1) * remaining
            # aborters: wasted progress + grace period, waiters stall for
            # the grace period
            out.total_time[abrt] += (program.rho - remaining) + delay[~survived]
            out.waiter_delay[abrt] += (k_c - 1) * delay[~survived]
            running[abrt] = False
        committed_now = idx[running]
        if committed_now.size:
            out.total_time[committed_now] += program.rho
            out.attempts[committed_now] = r + 1
            out.committed[committed_now] = True
            active[committed_now] = False
        # every still-active trial aborted this attempt: grow its B
        if active.any():
            B[active] = np.minimum(
                B[active] * program.factor + program.increment, program.max_B
            )
        r += 1
    # exhausted trials: attempts pegged at the cap, B already grown after
    # the final abort (matching the scalar loop's fall-through)
    out.attempts[active] = program.max_attempts
    # record_commit resets a committed trial's policy to B0
    out.final_B = np.where(out.committed, program.B0, B)
    return out


def _trial_shard(
    program: TrialProgram,
    n_rows: int,
    shard_seed: np.random.SeedSequence,
    engine: str,
) -> TrialResults:
    """Execute one shard's trials (module-level so pools can pickle it)."""
    if n_rows == 0:
        return TrialResults.empty(0)
    gen = np.random.default_rng(shard_seed)
    blocks = _DrawBlocks(gen, len(program.conflicts), n_rows)
    if engine == "scalar":
        return _replay_scalar(program, n_rows, blocks)
    return _replay_batch(program, n_rows, blocks)


def run_trials(
    program: TrialProgram,
    n_trials: int,
    *,
    seed: int | np.random.SeedSequence | None = None,
    path: tuple[int | str, ...] = (),
    engine: str = "batch",
    n_shards: int = DEFAULT_SHARDS,
    pool=None,
) -> TrialResults:
    """Run ``n_trials`` independent executions of ``program``.

    Parameters
    ----------
    seed / path:
        Either an integer seed plus a :func:`~repro.rngutil.seedseq_for`
        path, or a ready-made ``SeedSequence`` (``path`` ignored).
    engine:
        ``"batch"`` (SoA lockstep) or ``"scalar"`` (golden reference via
        ``TimedArena.run_transaction``); bit-identical by contract.
    n_shards:
        Part of the result's identity (see module docstring).
    pool:
        Optional :class:`~repro.parallel.SupervisedPool`; shards are
        starmapped in order, so rows are invariant to ``--jobs``.
    """
    if n_trials < 0:
        raise InvalidParameterError(f"n_trials must be >= 0, got {n_trials}")
    if n_shards < 1:
        raise InvalidParameterError(f"n_shards must be >= 1, got {n_shards}")
    if engine not in _ENGINES:
        raise InvalidParameterError(
            f"engine must be one of {_ENGINES}, got {engine!r}"
        )
    if isinstance(seed, np.random.Generator):
        raise InvalidParameterError(
            "pass a seed or SeedSequence, not a live Generator: a "
            "generator's future draws cannot be deterministically sharded"
        )
    root = seed if isinstance(seed, np.random.SeedSequence) else seedseq_for(
        seed, *path
    )
    tasks = [
        (program, size, child, engine)
        for size, child in zip(
            split_trials(n_trials, n_shards), _spawn_children(root, n_shards)
        )
    ]
    if pool is None:
        parts = [_trial_shard(*task) for task in tasks]
    else:
        parts = pool.starmap(_trial_shard, tasks)
    return TrialResults.concat(parts)
