"""Figure 3 — HTM throughput vs thread count (Section 8.2).

Four panels (stack, queue, transactional application, bimodal
application) x four conflict policies (NO_DELAY, DELAY_TUNED,
DELAY_DET, DELAY_RAND), swept over the paper's 1..18 thread axis.

Rows report committed operations per second at the configured clock,
plus abort statistics for diagnosis.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as _np

from repro.htm import (
    DetDelay,
    Machine,
    MachineParams,
    NoDelay,
    RandDelay,
    TunedDelay,
)
from repro.rngutil import DEFAULT_SEED
from repro.workloads import (
    QueueWorkload,
    StackWorkload,
    TxAppWorkload,
    Workload,
)

__all__ = [
    "FIG3_POLICIES",
    "FIG3_THREADS",
    "run_fig3",
    "run_fig3_stack",
    "run_fig3_queue",
    "run_fig3_txapp",
    "run_fig3_bimodal",
]

#: Figure 3's policy series, in legend order.
FIG3_POLICIES = ("NO_DELAY", "DELAY_TUNED", "DELAY_DET", "DELAY_RAND")

#: Thread counts swept (the paper's x-axis runs to 18).
FIG3_THREADS = (1, 2, 4, 6, 8, 12, 16, 18)


def _policy_factory(name: str, workload: Workload, params: MachineParams):
    if name == "NO_DELAY":
        return lambda core_id: NoDelay()
    if name == "DELAY_TUNED":
        tuned = workload.tuned_delay_cycles(params)
        return lambda core_id: TunedDelay(tuned)
    if name == "DELAY_DET":
        return lambda core_id: DetDelay()
    if name == "DELAY_RAND":
        return lambda core_id: RandDelay()
    if name == "DELAY_RA":
        from repro.htm import RequestorAbortsDelay

        return lambda core_id: RequestorAbortsDelay()
    if name == "DELAY_HYBRID":
        from repro.htm import HybridDelay

        return lambda core_id: HybridDelay()
    if name == "GREEDY_CM":
        from repro.htm import GreedyCM

        return lambda core_id: GreedyCM()
    raise ValueError(f"unknown Figure 3 policy {name!r}")


def _rep_worker(
    workload_factory: Callable[[], Workload],
    n: int,
    policy_name: str,
    horizon: float,
    base_seed: int,
    verify: bool,
    rep: int,
) -> tuple[float, int, int, int, int]:
    """One (threads, policy, repeat) machine run — the unit of parallel
    fan-out.

    Module-level so process pools can pickle it; the machine seed comes
    in via ``base_seed`` (simlint DET004) and depends only on the task
    coordinates ``(n, rep)``, so the result is identical wherever the
    repeat executes.  Returns the raw per-rep statistics
    ``(throughput, ops, aborts, commits, fallbacks)``; rows are folded
    per cell by :func:`_merge_cell` in rep order.
    """
    params = MachineParams(n_cores=max(n, 1))
    workload = workload_factory()
    machine = Machine(params, _policy_factory(policy_name, workload, params))
    machine.load(workload, seed=base_seed + 1009 * n + 7919 * rep)
    stats = machine.run(horizon)
    if verify:
        workload.verify(machine)
    return (
        stats.throughput_ops_per_sec(params.clock_ghz),
        stats.ops_completed,
        stats.tx_aborted,
        stats.tx_committed,
        stats.total("fallback_ops"),
    )


def _merge_cell(
    n: int,
    policy_name: str,
    reps: list[tuple[float, int, int, int, int]],
) -> dict[str, object]:
    """Fold one cell's per-rep statistics (in rep order) into its row."""
    repeats = len(reps)
    tputs = [r[0] for r in reps]
    ops_total = sum(r[1] for r in reps)
    aborts = sum(r[2] for r in reps)
    commits = sum(r[3] for r in reps)
    fallbacks = sum(r[4] for r in reps)
    arr = _np.asarray(tputs)
    row: dict[str, object] = {
        "threads": n,
        "policy": policy_name,
        "ops_per_sec": float(arr.mean()),
        "ops": ops_total // repeats,
        "abort_rate": aborts / max(commits + aborts, 1),
        "fallback_ops": fallbacks // repeats,
    }
    if repeats > 1:
        row["sem"] = float(arr.std(ddof=1) / _np.sqrt(repeats))
    return row


def run_fig3(
    workload_factory: Callable[[], Workload],
    *,
    threads: tuple[int, ...] = FIG3_THREADS,
    policies: tuple[str, ...] = FIG3_POLICIES,
    horizon: float = 300_000.0,
    seed: int | None = None,
    verify: bool = True,
    repeats: int = 1,
    pool=None,
) -> list[dict[str, object]]:
    """One Figure 3 panel: sweep threads x policies on a workload.

    ``repeats > 1`` averages each cell over independent seeds and adds a
    standard-error column — recommended at high contention, where
    single-seed ordering is noisy (see EXPERIMENTS.md on the bimodal
    panel).

    ``pool`` (an object with ``starmap``, e.g.
    :class:`repro.parallel.SupervisedPool`) fans out one task per
    *(cell, repeat)* — so ``repeats > 1`` parallelizes inside a cell
    too; every repeat is seeded from its own ``(n, rep)`` coordinates
    and cells fold their repeats in rep order, so rows are identical
    with or without a pool.  Pooled runs need a picklable
    ``workload_factory`` (the built-in panels use ``functools.partial``).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    base_seed = DEFAULT_SEED if seed is None else seed
    coords = [(n, policy_name) for n in threads for policy_name in policies]
    tasks = [
        (workload_factory, n, policy_name, horizon, base_seed, verify, rep)
        for n, policy_name in coords
        for rep in range(repeats)
    ]
    if pool is None:
        results = [_rep_worker(*task) for task in tasks]
    else:
        results = pool.starmap(_rep_worker, tasks)
    return [
        _merge_cell(n, policy_name, results[i * repeats : (i + 1) * repeats])
        for i, (n, policy_name) in enumerate(coords)
    ]


def run_fig3_stack(*, pool=None, **kwargs) -> list[dict[str, object]]:
    """Figure 3, stack throughput."""
    return run_fig3(StackWorkload, pool=pool, **kwargs)


def run_fig3_queue(*, pool=None, **kwargs) -> list[dict[str, object]]:
    """Figure 3, queue throughput."""
    return run_fig3(QueueWorkload, pool=pool, **kwargs)


def run_fig3_txapp(*, pool=None, **kwargs) -> list[dict[str, object]]:
    """Figure 3, transactional application (uniform lengths)."""
    return run_fig3(
        functools.partial(TxAppWorkload, work_cycles=100), pool=pool, **kwargs
    )


def run_fig3_bimodal(*, pool=None, **kwargs) -> list[dict[str, object]]:
    """Figure 3, bimodal transactional application."""
    return run_fig3(
        functools.partial(TxAppWorkload, work_cycles=100, bimodal=True),
        pool=pool,
        **kwargs,
    )


#: Extended policy set: the paper's four series plus the extension
#: resolutions (requestor-aborts, the Implications hybrid, and the
#: global-knowledge Greedy contention manager baseline).
EXT_POLICIES = (
    "NO_DELAY",
    "DELAY_RAND",
    "DELAY_RA",
    "DELAY_HYBRID",
    "GREEDY_CM",
)


def run_ext_bank(*, pool=None, **kwargs) -> list[dict[str, object]]:
    """Extension panel: bank transfers + audits under every resolution."""
    from repro.workloads import BankWorkload

    kwargs.setdefault("policies", EXT_POLICIES)
    return run_fig3(
        functools.partial(BankWorkload, p_audit=0.1), pool=pool, **kwargs
    )


def run_ext_listset(*, pool=None, **kwargs) -> list[dict[str, object]]:
    """Extension panel: sorted linked-list set under every resolution."""
    from repro.workloads import ListSetWorkload

    kwargs.setdefault("policies", EXT_POLICIES)
    return run_fig3(ListSetWorkload, pool=pool, **kwargs)
