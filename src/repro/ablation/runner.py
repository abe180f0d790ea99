"""Measure one ablation cell: a policy configuration on a workload.

Every replicate of a cell takes the *same* configuration through three
substrates, so each flip can register on the metric family it actually
affects:

* **HTM machine** — a :class:`~repro.htm.Machine` run of the workload
  (throughput, abort rate, fallback share).  The machine seed derives
  from ``(seed, workload, rep)`` only — *not* the flip — so flips are
  compared under common random numbers (paired design).
* **Ledger arena** — a Corollary 1 :class:`ConflictLedgerArena` pass
  over an adversarial schedule built from the same ``(workload, rep)``
  stream, scoring the configuration's competitive ratio vs OPT.
* **Timed arena** — a scalar :class:`TimedArena` attempts-to-commit
  measurement under the adversary's per-attempt plan, which is where
  Corollary 2's B-growth (and the grace period itself) shows up.

All randomness flows through :mod:`repro.rngutil` streams derived from
the cell coordinates, so rows are identical wherever the cell executes
and byte-identical at any ``--jobs``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ablation import axes
from repro.ablation.cells import WORKLOADS
from repro.adversary import ConflictLedgerArena, RandomAdversary, TimedArena
from repro.adversary.adversaries import make_transactions
from repro.core.backoff import BackoffPolicy
from repro.core.model import ConflictKind
from repro.core.policy import ImmediateAbortPolicy
from repro.core.requestor_wins import (
    DeterministicRW,
    UniformRW,
    optimal_requestor_wins,
)
from repro.distributions import ExponentialLengths
from repro.errors import InvalidParameterError
from repro.htm import (
    REMAINING_FRACTION,
    DetDelay,
    GreedyCM,
    Machine,
    MachineParams,
    NoDelay,
    RandDelay,
    RegimeAdaptiveDelay,
    RRWMeanDelay,
    commit_feed,
)
from repro.obs.tracebus import NO_SIM_TIME, get_bus
from repro.rngutil import seedseq_for, stream_for
from repro.sim.stats import Welford

__all__ = ["run_ablation_cell", "collect_matrix", "run_ablate_rank", "flip_parts"]

#: Conflicts a streaming estimator has digested by the time most
#: decisions are made — the *online* µ̂ is the mean over this prefix.
ONLINE_WINDOW = 64


def flip_parts(flip: str) -> tuple[str, str]:
    """``(axis, value)`` of a flip label; the baseline maps to itself."""
    if flip == axes.BASELINE_LABEL:
        return axes.BASELINE_LABEL, axes.BASELINE_LABEL
    name, _, value = flip.partition("=")
    return name, value


def _machine_params(cfg: axes.PolicyConfig, n_cores: int) -> MachineParams:
    params = MachineParams(n_cores=n_cores)
    if cfg.b_growth == "off":
        # disable inter-retry abort-cost growth (Corollary 2's mechanism
        # in the HTM is the exponential retry backoff)
        params = params.with_updates(retry_backoff_base=0)
    if cfg.fallback == "off":
        # never escalate to the lock-based fallback path
        params = params.with_updates(max_retries=1_000_000)
    return params


def _oracle_mu(workload_factory, params, horizon, calib_seed, fallback_mu):
    """Exact-knowledge µ: profile commit durations in a calibration
    pre-run of the same workload (seeded, so still deterministic)."""
    workload = workload_factory()
    durations = Welford()
    machine = Machine(params, lambda core_id: RandDelay())
    machine.commit_observers.append(durations.add)
    machine.load(workload, seed=calib_seed)
    machine.run(max(horizon / 4.0, 4_000.0))
    mu = durations.mean * REMAINING_FRACTION
    if not math.isfinite(mu) or mu <= 0:
        return fallback_mu
    return float(mu)


def _machine_policy(cfg, workload, params, oracle_mu):
    """``(policy_factory, commit_observer | None)`` for the machine run."""
    if cfg.grace == "off":
        return (lambda core_id: NoDelay()), None
    if cfg.family == "det":
        return (lambda core_id: DetDelay()), None
    if cfg.family == "rand":
        return (lambda core_id: RandDelay()), None
    if cfg.family == "greedy":
        return (lambda core_id: GreedyCM()), None
    # the regime family: the estimator axis picks the µ source
    if cfg.estimator == "online":
        policy = RegimeAdaptiveDelay()
        return (lambda core_id: policy), commit_feed(policy)
    tuned = workload.tuned_delay_cycles(params)
    offline_mu = max(1.0, REMAINING_FRACTION * tuned)
    mu = oracle_mu if cfg.estimator == "oracle" else offline_mu
    return (lambda core_id: RRWMeanDelay(mu)), None


def _arena_policy_factory(cfg, B, mus):
    """``k -> DelayPolicy`` for the ledger arena's ratio-vs-OPT pass."""
    if cfg.grace == "off" or cfg.family == "greedy":
        # no grace period: stock requestor-wins (greedy never waits
        # either; its victim choice has no ledger-arena analogue)
        return lambda k: ImmediateAbortPolicy()
    if cfg.family == "det":
        return lambda k: DeterministicRW(B, k)
    if cfg.family == "rand":
        return lambda k: UniformRW(B, k)
    mu = mus[cfg.estimator]
    return lambda k: optimal_requestor_wins(B, k, mu)


def _estimator_mus(remaining, offline_mu):
    """The three µ̂ sources, given the schedule's realized remaining
    times: the oracle knows the exact mean, the online estimator has
    digested a prefix window, the offline profile is a static guess."""
    if not remaining:  # conflict-free schedule: nothing to estimate from
        return {"oracle": float(offline_mu), "online": float(offline_mu),
                "offline": float(offline_mu)}
    return {
        "oracle": float(np.mean(remaining)),
        "online": float(np.mean(remaining[: min(len(remaining), ONLINE_WINDOW)])),
        "offline": float(offline_mu),
    }


def _machine_metrics(cfg, workload_factory, params, horizon, machine_seed,
                     calib_seed, verify):
    workload = workload_factory()
    oracle_mu = None
    if cfg.grace == "on" and cfg.family == "regime" and cfg.estimator == "oracle":
        tuned = workload.tuned_delay_cycles(params)
        oracle_mu = _oracle_mu(
            workload_factory, params, horizon, calib_seed,
            max(1.0, REMAINING_FRACTION * tuned),
        )
    policy_factory, observer = _machine_policy(cfg, workload, params, oracle_mu)
    machine = Machine(params, policy_factory)
    if observer is not None:
        machine.commit_observers.append(observer)
    machine.load(workload, seed=machine_seed)
    stats = machine.run(horizon)
    if verify:
        workload.verify(machine)
    return {
        "ops_per_sec": float(stats.throughput_ops_per_sec(params.clock_ghz)),
        "abort_rate": float(stats.abort_rate),
        "fallback_share": stats.total("fallback_ops") / max(stats.ops_completed, 1),
    }


def _arena_metrics(cfg, mu_cycles, arena_conflicts, attempt_trials,
                   attempt_cap, seed, workload_name, rep):
    """Competitive ratio vs OPT + attempts-to-commit for this config.

    The schedule streams derive from ``(seed, workload, rep)`` only, so
    every flip faces the *same* adversary (paired comparison)."""
    B = max(1.0, 0.6 * mu_cycles)
    rng_sched = stream_for(seed, "ablate", "sched", workload_name, rep)
    n_threads = 8
    txns = make_transactions(
        n_threads, max(arena_conflicts // n_threads, 4),
        ExponentialLengths(mu_cycles), rng_sched,
    )
    adversary = RandomAdversary(
        0.9, max_hits=3, chain_weights={2: 0.6, 3: 0.3, 5: 0.1}
    )
    schedule = adversary.build(txns, rng_sched)
    remaining = [c.remaining for c in schedule.conflicts]
    mus = _estimator_mus(remaining, REMAINING_FRACTION * mu_cycles)
    arena = ConflictLedgerArena(
        ConflictKind.REQUESTOR_WINS, B, _arena_policy_factory(cfg, B, mus)
    )
    outcome = arena.run(
        schedule, stream_for(seed, "ablate", "draw", workload_name, rep)
    )

    # attempts-to-commit: a long transaction (rho = 4µ) meeting two
    # conflicts per attempt, retried under the config's backoff family;
    # B-growth doubles the abort cost between attempts (Corollary 2)
    y = 4.0 * mu_cycles
    gamma = 2
    conflicts = [(y * (1.0 - (i + 0.5) / gamma) + 1.0, 2) for i in range(gamma)]
    base_factory = _arena_policy_factory(cfg, B, mus)
    if cfg.b_growth == "on":
        def policy_factory(f=base_factory):
            return BackoffPolicy(lambda b: _rebuild(f, b), B, factor=2.0)
    else:
        def policy_factory(f=base_factory):
            return f(2)
    timed = TimedArena(max_attempts=attempt_cap)
    records = timed.run_many(
        np.full(attempt_trials, y),
        lambda rho: conflicts,
        policy_factory,
        stream_for(seed, "ablate", "attempts", workload_name, rep),
    )
    attempts = [r.attempts for r in records]
    return {
        "ratio_vs_opt": float(outcome.ratio),
        "attempts_p90": float(np.percentile(attempts, 90)),
    }


def _rebuild(base_factory, B):
    """Rebuild the k=2 base policy at a grown abort cost ``B``.

    ``DeterministicRW``/``UniformRW``/mean-constrained policies are all
    parameterized by ``B``; the immediate-abort policy has nothing to
    grow and stays itself."""
    policy = base_factory(2)
    if isinstance(policy, ImmediateAbortPolicy):
        return policy
    if isinstance(policy, DeterministicRW):
        return DeterministicRW(B, 2)
    if isinstance(policy, UniformRW):
        return UniformRW(B, 2)
    # mean-constrained / polynomial optimum: re-derive at the grown B,
    # keeping the same µ̂ the estimator reported
    mu = getattr(policy, "mu", None)
    return optimal_requestor_wins(B, 2, mu)


def run_ablation_cell(
    *,
    flip: str,
    workload: str,
    replicates: int = 2,
    horizon: float = 24_000.0,
    n_cores: int = 4,
    arena_conflicts: int = 120,
    attempt_trials: int = 24,
    attempt_cap: int = 64,
    seed: int | None = None,
    verify: bool = True,
) -> list[dict[str, object]]:
    """Measure one (flip, workload) cell; one row per replicate."""
    if replicates < 1:
        raise InvalidParameterError(f"replicates must be >= 1, got {replicates}")
    cfg = axes.config_from_flip(flip)
    if workload not in WORKLOADS:
        raise InvalidParameterError(
            f"unknown ablation workload {workload!r}; "
            f"known: {', '.join(sorted(WORKLOADS))}"
        )
    workload_factory = WORKLOADS[workload]
    axis, value = flip_parts(flip)
    params = _machine_params(cfg, n_cores)
    mu_cycles = float(max(workload_factory().tuned_delay_cycles(params), 1))
    rows: list[dict[str, object]] = []
    for rep in range(replicates):
        # machine seeds depend on (workload, rep) only — common random
        # numbers across flips, so deltas are paired
        machine_seed = int(
            seedseq_for(seed, "ablate", "machine", workload, rep)
            .generate_state(1)[0]
        )
        calib_seed = int(
            seedseq_for(seed, "ablate", "calib", workload, rep)
            .generate_state(1)[0]
        )
        row: dict[str, object] = {
            "flip": flip,
            "axis": axis,
            "value": value,
            "workload": workload,
            "rep": rep,
        }
        row.update(
            _machine_metrics(
                cfg, workload_factory, params, horizon, machine_seed,
                calib_seed, verify,
            )
        )
        row.update(
            _arena_metrics(
                cfg, mu_cycles, arena_conflicts, attempt_trials,
                attempt_cap, seed, workload, rep,
            )
        )
        rows.append(row)
    get_bus().emit(
        NO_SIM_TIME,
        "ablation_run",
        -1,
        flip=flip,
        workload=workload,
        replicates=replicates,
    )
    return rows


def collect_matrix(
    *,
    flips: tuple[str, ...] | list[str] | None = None,
    workloads: tuple[str, ...] | list[str] = ("queue",),
    seed: int | None = None,
    cache=None,
    quick: bool = True,
    **cell_kwargs,
) -> list[dict[str, object]]:
    """Run every (flip, workload) cell serially through the registry.

    The parallel path is ``python -m repro ablate --jobs N``
    (:mod:`repro.ablation.cli`); this helper is the in-process
    equivalent the scorecard and tests use.  ``cache`` short-circuits
    unchanged cells through the content-addressed ``.repro-cache/``.
    """
    from repro.ablation.cells import cell_id
    from repro.experiments.registry import run_experiment

    labels = list(flips) if flips is not None else axes.flip_labels()
    rows: list[dict[str, object]] = []
    for label in labels:
        for workload in workloads:
            result = run_experiment(
                cell_id(label, workload),
                quick=quick,
                seed=seed,
                cache=cache,
                **cell_kwargs,
            )
            rows.extend(result.rows)
    return rows


def run_ablate_rank(
    *,
    workloads: tuple[str, ...] = ("queue",),
    replicates: int = 2,
    horizon: float = 24_000.0,
    n_cores: int = 4,
    arena_conflicts: int = 120,
    attempt_trials: int = 24,
    attempt_cap: int = 64,
    seed: int | None = None,
    cache=None,
) -> list[dict[str, object]]:
    """The importance ranking as experiment rows (one row per flip).

    This is the registry/scorecard entry point (``ablate_rank``); the
    CLI's reports are built from the same rows + scores."""
    from repro.ablation.score import rank_scores, score_matrix

    rows = collect_matrix(
        workloads=workloads,
        seed=seed,
        cache=cache,
        quick=True,
        replicates=replicates,
        horizon=horizon,
        n_cores=n_cores,
        arena_conflicts=arena_conflicts,
        attempt_trials=attempt_trials,
        attempt_cap=attempt_cap,
    )
    ranked = rank_scores(score_matrix(rows, seed=seed))
    return [
        {
            "rank": rank,
            "flip": s.flip,
            "axis": s.axis,
            "value": s.value,
            "importance": s.importance,
        }
        for rank, s in enumerate(ranked, start=1)
    ]
