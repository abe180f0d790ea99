"""Closing the profiler loop: adaptive mean-constrained grace periods.

Section 5.2 motivates the mean-constrained policies with a profiler
that records the empirical mean of successful executions.  Here the
profiler runs *inside* the machine: one `RegimeAdaptiveDelay`, shared by
every core and fed each commit through `commit_feed`, starts out on
Theorem 4's deterministic rule and, as conflicts and commits accumulate,
dispatches to the Theorem 5/6 densities its live estimates select.

The example traces the estimate's convergence and compares end-to-end
throughput against the static policies.

Run:  python examples/online_profiler.py
"""

from __future__ import annotations

from repro import Machine, MachineParams
from repro.experiments.report import render_table
from repro.htm import (
    NoDelay,
    RandDelay,
    RegimeAdaptiveDelay,
    TunedDelay,
    commit_feed,
)
from repro.workloads import TxAppWorkload


def run_adaptive(n_cores: int = 8, horizon: float = 300_000.0):
    policy = RegimeAdaptiveDelay()
    machine = Machine(MachineParams(n_cores=n_cores), lambda i: policy)
    machine.commit_observers.append(commit_feed(policy))
    workload = TxAppWorkload(work_cycles=100)
    machine.load(workload, seed=11)

    # sample the estimate as the run progresses
    checkpoints = []

    def snapshot(at):
        snap = policy.estimator.snapshot()
        checkpoints.append(
            {
                "cycles": int(at),
                "window_commits": snap.n_commits,
                "mu_hat": round(snap.mu_hat, 1),
                "regime": policy.regime,
            }
        )

    for at in (5_000.0, 25_000.0, 100_000.0, horizon - 1):
        machine.sim.at(at, snapshot, at)
    stats = machine.run(horizon)
    workload.verify(machine)
    return stats, checkpoints


def run_static(factory, n_cores: int = 8, horizon: float = 300_000.0):
    machine = Machine(MachineParams(n_cores=n_cores), factory)
    workload = TxAppWorkload(work_cycles=100)
    machine.load(workload, seed=11)
    stats = machine.run(horizon)
    workload.verify(machine)
    return stats


def main() -> None:
    stats_adaptive, checkpoints = run_adaptive()
    print("profiler convergence:")
    print(render_table(checkpoints))
    print()

    params = MachineParams(n_cores=8)
    tuned = TxAppWorkload(work_cycles=100).tuned_delay_cycles(params)
    rows = [
        {
            "policy": "ADAPTIVE (online mu)",
            "ops": stats_adaptive.ops_completed,
            "abort_rate": round(stats_adaptive.abort_rate, 3),
        }
    ]
    for name, factory in [
        ("NO_DELAY", lambda i: NoDelay()),
        ("DELAY_RAND (no mu)", lambda i: RandDelay()),
        (f"DELAY_TUNED ({tuned} cyc, offline)", lambda i: TunedDelay(tuned)),
    ]:
        stats = run_static(factory)
        rows.append(
            {
                "policy": name,
                "ops": stats.ops_completed,
                "abort_rate": round(stats.abort_rate, 3),
            }
        )
    print(render_table(rows, title="transactional app, 8 cores, 300k cycles"))
    print(
        "\nthe adaptive policy needs no offline tuning pass and lands in "
        "the same band\nas the hand-tuned delay once its estimate converges."
    )


if __name__ == "__main__":
    main()
