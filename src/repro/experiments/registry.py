"""Experiment registry: id -> runner, with quick-mode scaling.

Every table and figure in the paper (and every ablation in DESIGN.md)
has an entry here; the benchmark files and the CLI both dispatch through
:func:`run_experiment` so there is exactly one implementation per
artifact.

:func:`run_experiment` is hardened for long batch runs with a
**watchdog** (CLI-visible as ``--timeout``): ``timeout`` seconds of wall
clock per run; a signal-based alarm (main thread) kills runaway
experiments with :class:`~repro.errors.ExperimentTimeoutError` even when
they are stuck outside the simulation kernel.  Nothing is retried in
process: a runner is a pure function of its arguments and seed, so a
second attempt would raise the same error.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import logging
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.ablation.runner import run_ablate_rank
from repro.errors import ExperimentError, ExperimentTimeoutError
from repro.experiments import (
    ablations,
    chains,
    corollary,
    fig2,
    fig3,
    regimes,
    robustness,
    scorecard,
    tables,
    throughput,
)

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "register_experiment",
    "known_experiment",
]


logger = logging.getLogger(__name__)


@dataclass
class ExperimentResult:
    """Rows + metadata for one experiment run.

    ``cached`` marks a result whose rows were served from a
    :class:`repro.parallel.ResultCache` instead of being recomputed;
    everything else (title, params, notes) is always rebuilt from the
    live registry, so cached and fresh results render identically.
    """

    exp_id: str
    title: str
    rows: list[dict[str, object]]
    params: dict[str, object] = field(default_factory=dict)
    notes: str = ""
    cached: bool = False


@dataclass(frozen=True)
class _Spec:
    title: str
    runner: Callable[..., list[dict[str, object]]]
    full_kwargs: dict
    quick_kwargs: dict
    notes: str = ""


_SPECS: dict[str, _Spec] = {
    # full-mode Monte-Carlo grids fix n_shards=8: the shard count is part
    # of the result's identity (same rows at any --jobs), while the pool
    # the CLI passes decides only where the shards execute
    "fig2a": _Spec(
        "Fig 2a: average conflict cost, high fixed cost (B=2000, mu=500)",
        fig2.run_fig2a,
        dict(trials=200_000, n_shards=8),
        dict(trials=20_000),
        "paper: DET near OPT; RRW(mu)/RRA(mu) beat RRW/RRA; "
        "RRW ~ 2x OPT, RRA ~ e/(e-1) x OPT",
    ),
    "fig2b": _Spec(
        "Fig 2b: average conflict cost, low fixed cost (B=200, mu=500)",
        fig2.run_fig2b,
        dict(trials=200_000, n_shards=8),
        dict(trials=20_000),
        "paper: DET notably worse; constrained ~ unconstrained; RA beats RW",
    ),
    "fig2c": _Spec(
        "Fig 2c: worst-case distribution for DET",
        fig2.run_fig2c,
        dict(trials=200_000, n_shards=8),
        dict(trials=20_000),
        "paper: DET ~ 3x OPT; randomized policies stay near their ratios",
    ),
    "fig3_stack": _Spec(
        "Fig 3: stack throughput vs threads",
        fig3.run_fig3_stack,
        dict(horizon=300_000.0),
        dict(horizon=60_000.0, threads=(1, 4, 8)),
        "paper: DELAY_TUNED best, online policies close, NO_DELAY worst "
        "under contention",
    ),
    "fig3_queue": _Spec(
        "Fig 3: queue throughput vs threads",
        fig3.run_fig3_queue,
        dict(horizon=300_000.0),
        dict(horizon=60_000.0, threads=(1, 4, 8)),
        "paper: same ordering as stack at lower absolute throughput",
    ),
    "fig3_txapp": _Spec(
        "Fig 3: transactional application throughput vs threads",
        fig3.run_fig3_txapp,
        dict(horizon=300_000.0),
        dict(horizon=60_000.0, threads=(1, 4, 8)),
        "paper: delay policies improve on NO_DELAY (up to ~4x)",
    ),
    "fig3_bimodal": _Spec(
        "Fig 3: bimodal transactional application throughput vs threads",
        fig3.run_fig3_bimodal,
        # bimodal at high contention is noisy; average 3 seeds per cell
        dict(horizon=300_000.0, repeats=3),
        dict(horizon=60_000.0, threads=(1, 4, 8)),
        "paper: hand-tuning loses; NO_DELAY decent; DELAY_RAND best at "
        "high contention/variance",
    ),
    "tab_ratios": _Spec(
        "Competitive-ratio verification (Theorems 1-6)",
        tables.run_tab_ratios,
        dict(),
        dict(B_values=(200.0,), k_values=(2, 4), grid=512),
        "numeric sup-ratio must match closed form to grid accuracy",
    ),
    "tab_abort_prob": _Spec(
        "Section 5.3 abort probabilities (RW vs RA)",
        tables.run_tab_abort_prob,
        dict(),
        dict(B_values=(200.0,)),
        "paper: RW ~ 1-1.8/B, RA ~ 1-2.4/B; RA less likely to abort",
    ),
    "cor1": _Spec(
        "Corollary 1: global ratio vs (2w+1)/(w+1) bound",
        corollary.run_cor1,
        dict(),
        dict(n_threads=8, per_thread=50),
        "measured sum-of-running-times ratio must respect the bound",
    ),
    "cor2": _Spec(
        "Corollary 2: progress under multiplicative backoff",
        corollary.run_cor2,
        dict(),
        dict(trials=100),
        "P(commit within bound attempts) must be >= 1/2",
    ),
    "abl_delay_cap": _Spec(
        "Ablation: delay support cap around B/(k-1)",
        ablations.run_abl_delay_cap,
        dict(),
        dict(factors=(0.5, 1.0, 2.0)),
        "the B/(k-1) cap should minimize the ratio",
    ),
    "abl_hybrid": _Spec(
        "Ablation: hybrid RW/RA crossover over chain size",
        ablations.run_abl_hybrid,
        dict(),
        dict(k_values=(2, 3, 6)),
        "RA wins at k=2, RW wins for k>=3 (paper Implications)",
    ),
    "abl_mean_error": _Spec(
        "Ablation: sensitivity to mis-estimated mean",
        ablations.run_abl_mean_error,
        dict(),
        dict(error_factors=(0.5, 1.0, 2.0)),
        "",
    ),
    "abl_wedge": _Spec(
        "Ablation: wedge-aware immediate aborts in the HTM",
        ablations.run_abl_wedge,
        dict(),
        dict(threads=(4,), horizon=60_000.0),
        "wedge-awareness should not hurt and usually helps",
    ),
    "abl_backoff": _Spec(
        "Ablation: multiplicative vs additive abort-cost growth",
        ablations.run_abl_backoff,
        dict(),
        dict(trials=60),
        "",
    ),
    "abl_htm_resolution": _Spec(
        "Extension: RW vs RA vs hybrid vs adaptive resolution in the HTM",
        ablations.run_abl_htm_resolution,
        dict(),
        dict(threads=(4,), horizon=80_000.0),
        "the paper's Implications section suggests a hybrid performs best",
    ),
    "ext_bank": _Spec(
        "Extension: bank transfers + audits, all resolution strategies",
        fig3.run_ext_bank,
        dict(threads=(1, 2, 4, 8, 12, 16)),
        dict(horizon=60_000.0, threads=(2, 8)),
        "money conservation + audit snapshot consistency verified per run",
    ),
    "ext_listset": _Spec(
        "Extension: sorted linked-list set, all resolution strategies",
        fig3.run_ext_listset,
        dict(threads=(1, 2, 4, 8, 12, 16)),
        dict(horizon=60_000.0, threads=(2, 8)),
        "long traversal read sets; chains k > 2 form naturally",
    ),
    "ext_chains": _Spec(
        "Extension: RW/RA crossover over chain size (theory vs MC)",
        chains.run_ext_chains,
        dict(),
        dict(k_values=(2, 3, 6), trials=20_000),
        "RA wins at k=2, RW from k=3 on; the hybrid tracks the winner",
    ),
    "abl_sensitivity": _Spec(
        "Ablation: policy ordering vs abort-cost calibration",
        ablations.run_abl_sensitivity,
        dict(),
        dict(abort_cycles=(60,), overheads=(100,), horizon=60_000.0),
        "the delay-vs-NO_DELAY ordering must be stable across the "
        "plausible abort-penalty range (DESIGN.md 5b.5)",
    ),
    "abl_k_aware": _Spec(
        "Ablation: chain-size-aware delay cap B/(k-1) vs k-blind",
        ablations.run_abl_k_aware,
        dict(),
        dict(n_cores_values=(8,), horizon=80_000.0),
        "Theorem 5/6's k scaling, measured live on a chain-heavy line",
    ),
    "ext_regimes": _Spec(
        "Extension: cost-vs-OPT curves over the B/mu regime axis",
        regimes.run_ext_regimes,
        dict(),
        dict(b_over_mu=(0.5, 2.0, 8.0), trials=20_000),
        "the continuous curve behind Figures 2a/2b: DET's plateau, the "
        "constrained-policy detachment, the RW/RA ordering flip",
    ),
    "scorecard": _Spec(
        "Reproduction scorecard: every headline claim, graded",
        scorecard.run_scorecard,
        dict(quick=False),
        dict(quick=True),
        "one pass/fail row per paper claim; TOTAL row aggregates",
    ),
    "robustness": _Spec(
        "Robustness: policy throughput degradation vs injected fault rate",
        robustness.run_robustness,
        dict(),
        dict(
            spurious_rates=(0.0, 1e-3),
            n_cores=4,
            horizon=30_000.0,
            policies=("NO_DELAY", "DELAY_RAND"),
        ),
        "delay policies should degrade gracefully (no cliff) as the "
        "machine injects spurious aborts, link jitter, and stalls",
    ),
    "robustness_est": _Spec(
        "Robustness: competitive ratio vs B/k/mu estimator noise",
        robustness.run_robustness_est,
        dict(),
        dict(sigmas=(0.0, 0.5), draws=12),
        "mean-constrained policies are the noise-sensitive ones "
        "(Thm 2/5 regime); unconstrained RRW degrades smoothly",
    ),
    "ext_throughput": _Spec(
        "Extension: time-resolved arena under both adversary models",
        throughput.run_ext_throughput,
        dict(),
        dict(horizon=100_000.0),
        "per_attempt (paper's model): delays win; rate (outside the "
        "model): immediate abort gains an un-modeled advantage",
    ),
    "ablate_rank": _Spec(
        "Ablation: component importance ranking over the flip matrix",
        run_ablate_rank,
        dict(
            workloads=("queue", "txapp"),
            replicates=4,
            horizon=120_000.0,
            n_cores=8,
            arena_conflicts=400,
            attempt_trials=48,
            attempt_cap=128,
        ),
        dict(
            workloads=("queue",),
            replicates=2,
            horizon=24_000.0,
            n_cores=4,
            arena_conflicts=120,
            attempt_trials=24,
            attempt_cap=64,
        ),
        "which policy component earns its keep: grace / family / "
        "B-growth / estimator / fallback flips, ranked (docs/ABLATION.md)",
    ),
}

#: Public experiment table (id -> title).
EXPERIMENTS: dict[str, str] = {k: s.title for k, s in _SPECS.items()}


def _resolve_spec(exp_id: str) -> _Spec | None:
    """Static registry lookup, plus dynamic resolution of ablation cell
    ids (``ablate/<flip>/<workload>``).

    Cells are resolved from the id alone so worker processes — which
    never see the parent's runtime registrations — rebuild the same
    spec under any start method, and every cell gets its own
    content-addressed cache entry.  Malformed ``ablate/`` ids raise
    :class:`~repro.errors.ExperimentError` like any other unknown id.
    """
    spec = _SPECS.get(exp_id)
    if spec is None and exp_id.startswith("ablate/"):
        from repro.ablation.cells import spec_args

        return _Spec(**spec_args(exp_id))
    return spec


def known_experiment(exp_id: str) -> bool:
    """Whether :func:`run_experiment` can resolve ``exp_id``."""
    try:
        return _resolve_spec(exp_id) is not None
    except ExperimentError:
        return False


def register_experiment(
    exp_id: str,
    title: str,
    runner: Callable[..., list[dict[str, object]]],
    *,
    full_kwargs: dict | None = None,
    quick_kwargs: dict | None = None,
    notes: str = "",
    replace: bool = False,
) -> None:
    """Register an experiment at runtime (extensions, test doubles).

    The CLI and :func:`run_experiment` see it immediately; ``replace``
    guards against accidental shadowing of a built-in artifact.
    """
    if exp_id in _SPECS and not replace:
        raise ExperimentError(
            f"experiment {exp_id!r} already registered (pass replace=True)"
        )
    _SPECS[exp_id] = _Spec(
        title, runner, full_kwargs or {}, quick_kwargs or {}, notes
    )
    EXPERIMENTS[exp_id] = title


@contextlib.contextmanager
def _watchdog(seconds: float | None, exp_id: str):
    """Wall-clock kill switch around one experiment attempt.

    Uses ``SIGALRM`` so even loops that never re-enter the simulation
    kernel get interrupted.  Signals only work on the main thread;
    elsewhere nothing enforces the budget, so we degrade to a warning
    rather than refusing to run — run experiments through
    ``repro.parallel.SupervisedPool`` (or the CLI's ``--jobs``) when
    hard enforcement matters: its workers run on their own main
    threads *and* the parent kills overdue worker processes outright.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    if (
        threading.current_thread() is not threading.main_thread()
        or not hasattr(signal, "SIGALRM")
    ):
        logger.warning(
            "experiment %r: timeout=%gs requested off the main thread; "
            "the SIGALRM watchdog cannot arm here, so the budget is not "
            "enforced — use repro.parallel.SupervisedPool for "
            "process-level enforcement",
            exp_id,
            seconds,
        )
        yield
        return

    def _fire(signum, frame):
        raise ExperimentTimeoutError(
            f"experiment {exp_id!r} exceeded its {seconds:g}s wall-clock "
            f"budget (watchdog)"
        )

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: Runtime-only arguments: forwarded to runners that accept them but
#: excluded from result params and cache keys — they say *where* work
#: executes, never *what* is computed.
_RUNTIME_ONLY = ("pool", "cache")

#: exp_id -> ((kwargs, quick, seed, runner), rows as JSON text): the
#: last successful result :func:`run_experiment` returned for each id in
#: this process, computed or read from the disk cache.  The key is
#: ResultCache's without the source fingerprint, which cannot change
#: inside a process; the runner makes ``register_experiment(...,
#: replace=True)`` safe.  Only the scorecard reads it (through
#: :func:`_stored_rows`), so ``--no-cache`` still recomputes every
#: experiment a caller names.  Reading it is safe because rows are a
#: pure function of the key: it changes wall time, never a row, so it
#: adds no run-order dependence (a store keyed too coarsely would, and
#: CI's ``--jobs 1`` vs ``--jobs 4`` row diff would show it).
_LAST_ROWS: dict[str, tuple[tuple, str]] = {}


def _invocation(exp_id: str, quick: bool, seed: int | None, overrides: dict):
    """``(spec, runner parameters, kwargs, key)`` for one call: kwargs
    are the mode defaults, overrides and seed with the runtime-only
    arguments removed, and the key is what :data:`_LAST_ROWS` matches."""
    spec = _resolve_spec(exp_id)
    if spec is None:
        known = ", ".join(sorted(_SPECS))
        raise ExperimentError(f"unknown experiment {exp_id!r}; known: {known}")
    sig_params = inspect.signature(spec.runner).parameters
    kwargs = dict(spec.quick_kwargs if quick else spec.full_kwargs)
    kwargs.update(overrides)
    if seed is not None and "seed" in sig_params:
        kwargs.setdefault("seed", seed)
    kwargs = {k: v for k, v in kwargs.items() if k not in _RUNTIME_ONLY}
    # the key copies kwargs: they become the result's params, which the
    # caller may change
    return spec, sig_params, kwargs, (dict(kwargs), quick, seed, spec.runner)


def _remember(exp_id: str, key: tuple, rows: list) -> None:
    """Record ``rows`` as ``exp_id``'s latest; rows that do not
    serialize (like ``ResultCache.put_rows``) leave no entry."""
    try:
        _LAST_ROWS[exp_id] = (key, json.dumps(rows))
    except (TypeError, ValueError):
        _LAST_ROWS.pop(exp_id, None)


def _stored_rows(
    exp_id: str, *, quick: bool, seed: int | None
) -> list[dict[str, object]] | None:
    """A parsed copy of the rows ``run_experiment(exp_id, quick=quick,
    seed=seed)`` last returned in this process, or ``None`` when it has
    not returned them (the latest entry is another invocation's)."""
    *_, key = _invocation(exp_id, quick, seed, {})
    entry = _LAST_ROWS.get(exp_id)
    if entry is None or entry[0] != key:
        return None
    return json.loads(entry[1])


def run_experiment(
    exp_id: str,
    *,
    quick: bool = False,
    seed: int | None = None,
    timeout: float | None = None,
    cache=None,
    pool=None,
    **overrides,
) -> ExperimentResult:
    """Run one experiment by id.

    ``quick`` shrinks trial counts/horizons for CI; ``overrides`` are
    forwarded to the runner (after the mode defaults).  ``timeout``
    arms a wall-clock watchdog.  A failure propagates from the one
    attempt: the runner is deterministic, so nothing is retried.

    ``cache`` (a :class:`repro.parallel.ResultCache`) short-circuits
    the run when an entry for this exact invocation exists, and stores
    the rows afterwards otherwise; failures are never cached.  ``pool``
    (a :class:`repro.parallel.SupervisedPool`) is handed to runners that
    support intra-experiment fan-out (trial shards, sweep cells).
    Neither changes the rows — caching replays them, pooling only
    relocates the computation — and neither appears in the result's
    ``params`` or the cache key.

    The rows of the last successful result per id are kept for the
    scorecard to grade (see :data:`_LAST_ROWS`); this function itself
    never returns kept rows, so every call computes or reads ``cache``.
    """
    spec, sig_params, kwargs, key = _invocation(exp_id, quick, seed, overrides)
    if cache is not None:
        hit = cache.get_rows(exp_id, kwargs, quick=quick, seed=seed)
        if hit is not None:
            _remember(exp_id, key, hit)
            return ExperimentResult(
                exp_id=exp_id,
                title=spec.title,
                rows=hit,
                params=kwargs,
                notes=spec.notes,
                cached=True,
            )
    call_kwargs = dict(kwargs)
    if pool is not None and "pool" in sig_params:
        call_kwargs["pool"] = pool
    if cache is not None and "cache" in sig_params:
        call_kwargs["cache"] = cache
    with _watchdog(timeout, exp_id):
        rows = spec.runner(**call_kwargs)
    if cache is not None:
        cache.put_rows(exp_id, rows, kwargs, quick=quick, seed=seed)
    _remember(exp_id, key, rows)
    return ExperimentResult(
        exp_id=exp_id,
        title=spec.title,
        rows=rows,
        params=kwargs,
        notes=spec.notes,
    )
