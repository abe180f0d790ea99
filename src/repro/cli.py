"""Command-line entry point: regenerate the paper's tables and figures.

Examples::

    python -m repro --list
    python -m repro fig2a tab_ratios
    python -m repro all --quick
    python -m repro fig3_stack --seed 7 --out results/
    python -m repro all --quick --keep-going --timeout 120
    python -m repro all --quick --jobs 4
    python -m repro fig3_stack --jobs 8          # intra-experiment shards
    python -m repro all --no-cache --cache-dir /tmp/repro-cache
    python -m repro lint --list-rules
    python -m repro cache verify
    python -m repro all --quick --jobs 4 --chaos 1234
    python -m repro loadgen --quick --seed 3     # decision-service replay
    python -m repro serve --requests 2000        # serving smoke

``lint`` dispatches to :mod:`repro.analysis.cli` — the simlint
determinism & contract linter (docs/STATIC_ANALYSIS.md); ``cache``
dispatches to :mod:`repro.parallel.cache_cli` — checksum verification
and pruning of the result cache; ``serve``/``loadgen`` dispatch to
:mod:`repro.serve.cli` — the conflict-policy decision service and its
million-client replay harness (docs/SERVING.md).

Parallelism & caching (docs/PERFORMANCE.md):

* Every batch runs on one :class:`~repro.parallel.SupervisedPool` of
  ``--jobs N`` workers.  Several experiments fan out one per worker
  (ordered reporting, process-level timeout kills); a single
  experiment runs in this process and fans its shards out over the
  workers; at ``--jobs 1`` everything runs in this process.  Rows are
  invariant to ``--jobs`` — only wall clock changes.
* Results are cached content-addressed under ``--cache-dir``
  (default ``.repro-cache``, or ``$REPRO_CACHE_DIR``); any source
  change invalidates every entry.  ``--no-cache`` (or
  ``$REPRO_NO_CACHE=1``) disables both lookup and store.

Resilience (docs/ROBUSTNESS.md):

* ``--timeout`` arms a per-experiment wall-clock watchdog; under
  ``--jobs`` the parent also kills overdue worker processes.
* ``--keep-going`` records failures and keeps running; the run exits
  non-zero with a per-experiment failure summary instead of aborting
  at the first error.
* An interrupted batch finishes by running the same command again
  with the same ``--cache-dir``: every experiment that completed is a
  cache hit, and only the rest run.  Cache entries are written
  atomically with ``fsync`` and carry a checksum, so a crash mid-write
  costs at most the entry being written.
* Under ``--jobs``, workers are warm and *supervised*: heartbeat pings
  detect crashed or hung workers, their in-flight task is re-executed
  on a fresh worker (bounded, with backoff), and once
  ``--max-worker-restarts`` replacements are spent the run degrades to
  serial in-parent execution instead of failing.
* ``--chaos SEED`` arms the process-level chaos harness (seeded
  SIGKILLs of workers at injection points) to exercise exactly that
  machinery; completed runs still produce rows byte-identical to a
  fault-free run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from contextlib import nullcontext

from repro.experiments import EXPERIMENTS, render_failures, render_result
from repro.obs import capture as obs_capture

__all__ = ["main", "build_parser"]

#: Default result-cache location (overridable via ``$REPRO_CACHE_DIR``).
DEFAULT_CACHE_DIR = ".repro-cache"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'The Transactional "
            "Conflict Problem' (SPAA 2018)"
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (or 'all'); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced trial counts / horizons (CI mode)",
    )
    parser.add_argument("--seed", type=int, default=None, help="root RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes: several experiments fan out one-per-"
        "worker; a single experiment gets an intra-experiment shard "
        "pool.  Rows are identical at any --jobs (deterministic "
        "sharding)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=not os.environ.get("REPRO_NO_CACHE"),
        help="reuse content-addressed cached rows when nothing they "
        "depend on changed (--no-cache disables; also "
        "$REPRO_NO_CACHE=1)",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=pathlib.Path(
            os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        ),
        metavar="PATH",
        help=f"result cache directory (default {DEFAULT_CACHE_DIR}, or "
        "$REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to also write one <id>.txt report per experiment",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with --out, additionally write <id>.json (rows + params) "
        "for downstream plotting",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock watchdog per experiment; a run past the budget "
        "is killed with ExperimentTimeoutError (with --jobs, the parent "
        "kills the worker process itself if the in-worker alarm fails)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="collect per-experiment failures and keep running; exit "
        "non-zero with a failure summary at the end",
    )
    parser.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="arm seeded process-level chaos: SIGKILL worker processes "
        "at deterministic injection points (needs --jobs > 1); the "
        "supervised pool re-executes killed tasks, so completed runs "
        "still produce fault-free rows",
    )
    parser.add_argument(
        "--max-worker-restarts",
        type=int,
        default=8,
        metavar="N",
        help="pool-wide budget of replacement worker processes; once "
        "spent, remaining experiments run serially in the parent",
    )
    parser.add_argument(
        "--metrics-out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="write the batch's merged metrics snapshot as JSON "
        "(per-experiment snapshots merged in submission order — "
        "byte-identical at any --jobs; docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="write the batch's trace events as canonical JSONL "
        "(submission order — byte-identical at any --jobs)",
    )
    return parser


def _emit_result(args: argparse.Namespace, result, elapsed: float) -> None:
    """Print one completed experiment and write its --out artifacts."""
    text = render_result(result)
    print(text)
    suffix = " (cache hit)" if result.cached else ""
    print(f"[{result.exp_id} completed in {elapsed:.1f}s{suffix}]\n")
    if args.out is not None:
        (args.out / f"{result.exp_id}.txt").write_text(text + "\n")
        if args.json:
            payload = {
                "exp_id": result.exp_id,
                "title": result.title,
                "params": {k: repr(v) for k, v in result.params.items()},
                "rows": result.rows,
                "notes": result.notes,
            }
            (args.out / f"{result.exp_id}.json").write_text(
                json.dumps(payload, indent=2, default=str) + "\n"
            )


def _write_obs(args: argparse.Namespace, snaps: list, events: list) -> None:
    """Write --metrics-out / --trace-out artifacts.

    ``snaps`` and ``events`` arrive in experiment submission order, so
    both files are byte-identical at any ``--jobs``."""
    from repro.obs import merge_snapshots
    from repro.obs.tracebus import write_jsonl

    if args.metrics_out is not None:
        args.metrics_out.write_text(
            json.dumps(merge_snapshots(snaps), indent=2, sort_keys=True) + "\n"
        )
        print(f"[metrics snapshot -> {args.metrics_out}]")
    if args.trace_out is not None:
        count = write_jsonl(events, args.trace_out)
        print(f"[{count} trace events -> {args.trace_out}]")


#: Supervision vocabulary folded into --metrics-out / --trace-out:
#: counters the supervised pool increments, and the event kinds it
#: emits on the parent's bus.  Fault-free runs produce none of either,
#: so the obs artifacts stay byte-identical at any --jobs; under chaos
#: they carry the crash/restart counts.
_SUPERVISION_COUNTERS = frozenset(
    {
        "worker_crashes",
        "worker_restarts",
        "task_reexecutions",
        "worker_heartbeat_timeouts",
        "worker_parent_kills",
        "degraded_to_serial",
    }
)
_SUPERVISION_KINDS = frozenset(
    {
        "worker_crashed",
        "worker_restarted",
        "degraded_to_serial",
    }
)


def _fold_supervision(parent_cap, snaps: list, events: list) -> None:
    """Append the parent capture's supervision counters/events to the
    obs outputs (see _SUPERVISION_COUNTERS)."""
    if parent_cap is None:
        return
    events.extend(
        e for e in parent_cap.events if e.kind in _SUPERVISION_KINDS
    )
    counters = {
        name: value
        for name, value in parent_cap.snapshot().get("counters", {}).items()
        if name in _SUPERVISION_COUNTERS and value
    }
    if counters:
        snaps.append({"counters": counters, "gauges": {}, "histograms": {}})


def _run_batch(
    args: argparse.Namespace,
    ids: list[str],
    failures: list[dict[str, object]],
    *,
    collect: bool = False,
):
    """Run ``ids`` on the supervised pool; return their outcomes.

    At ``--jobs 1`` (or for a single experiment) the pool runs them in
    this process.  Outcomes arrive in completion order and are emitted
    in submission order.
    """
    from repro.parallel import ExperimentTask, SupervisedPool, source_fingerprint
    from repro.parallel.supervisor import DEFAULT_MAX_TASK_REEXECUTIONS

    chaos = None
    reexecutions = DEFAULT_MAX_TASK_REEXECUTIONS
    if args.chaos is not None:
        from repro.faults import ChaosPlan

        chaos = ChaosPlan(seed=args.chaos)
        # chaos is suppressed from safe_attempt on; the budget must
        # reach it or a chaosed task could fail before its safe run
        reexecutions = max(DEFAULT_MAX_TASK_REEXECUTIONS, chaos.safe_attempt)
    pool = SupervisedPool(
        args.jobs,
        max_task_reexecutions=reexecutions,
        max_worker_restarts=args.max_worker_restarts,
        timeout=args.timeout,
        chaos=chaos,
    )
    fingerprint = source_fingerprint() if args.cache else None
    tasks = [
        ExperimentTask(
            exp_id,
            quick=args.quick,
            seed=args.seed,
            timeout=args.timeout,
            cache_dir=str(args.cache_dir) if args.cache else None,
            fingerprint=fingerprint,
            collect=collect,
        )
        for exp_id in ids
    ]
    buffered: dict[str, object] = {}
    emit_order = list(ids)

    def flush() -> None:
        while emit_order and emit_order[0] in buffered:
            outcome = buffered.pop(emit_order.pop(0))
            if outcome.ok:
                _emit_result(args, outcome.result, outcome.elapsed_s)
            elif outcome.status == "failed":
                print(
                    f"[{outcome.exp_id} FAILED after {outcome.elapsed_s:.1f}s:"
                    f" {outcome.error_type}: {outcome.error}]\n",
                    file=sys.stderr,
                )

    def on_complete(outcome) -> None:
        if not outcome.ok:
            failure = {
                "exp_id": outcome.exp_id,
                "error_type": outcome.error_type,
                "error": outcome.error,
            }
            if outcome.exit_cause is not None:
                # the real reason the worker died (signal/exit/timeout)
                failure["exit_cause"] = outcome.exit_cause
            failures.append(failure)
        buffered[outcome.exp_id] = outcome
        flush()

    outcomes = pool.run(
        tasks, on_outcome=on_complete, stop_on_failure=not args.keep_going
    )
    flush()
    skipped = [o.exp_id for o in outcomes if o.status == "skipped"]
    if skipped:
        print(
            f"[{len(skipped)} experiment(s) not started after failure: "
            f"{', '.join(skipped)}]",
            file=sys.stderr,
        )
    if pool.stats.any():
        summary = ", ".join(
            f"{k}={v}" for k, v in pool.stats.as_dict().items() if v
        )
        print(f"[supervisor: {summary}]", file=sys.stderr)
    return outcomes


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # the determinism & contract linter is its own subcommand with
        # its own parser; see repro.analysis.cli and docs/STATIC_ANALYSIS.md
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "trace":
        # run one experiment under the trace bus and export its event
        # stream; see repro.obs.cli and docs/OBSERVABILITY.md
        from repro.obs.cli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "cache":
        # result-cache operator verbs (verify / prune); see
        # repro.parallel.cache_cli and docs/ROBUSTNESS.md
        from repro.parallel.cache_cli import cache_main

        return cache_main(argv[1:])
    if argv and argv[0] == "loadgen":
        # the decision-service replay/load harness; see repro.serve
        # and docs/SERVING.md
        from repro.serve.cli import loadgen_main

        return loadgen_main(argv[1:])
    if argv and argv[0] == "serve":
        # one-shot smoke serving of the conflict-policy decision
        # service; see repro.serve and docs/SERVING.md
        from repro.serve.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "ablate":
        # the strategy-ablation matrix + importance ranking; see
        # repro.ablation and docs/ABLATION.md
        from repro.ablation.cli import ablate_main

        return ablate_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list or not args.experiments:
        for exp_id, title in sorted(EXPERIMENTS.items()):
            print(f"{exp_id:16s} {title}")
        return 0
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    ids = list(args.experiments)
    if ids == ["all"]:
        ids = sorted(EXPERIMENTS)
    # ablation cells (ablate/<flip>/<workload>) resolve dynamically
    from repro.experiments.registry import known_experiment

    unknown = [i for i in ids if not known_experiment(i)]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use --list to see available ids", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    if args.chaos is not None and args.jobs < 2:
        print(
            "--chaos targets worker processes and needs --jobs > 1; "
            "ignoring it",
            file=sys.stderr,
        )
        args.chaos = None

    collect = args.metrics_out is not None or args.trace_out is not None
    # the parent-side capture records supervision activity (worker
    # crashes/restarts); fault-free runs record nothing, keeping
    # --metrics-out/--trace-out byte-identical at any --jobs
    with (obs_capture() if collect else nullcontext()) as parent_cap:
        failures: list[dict[str, object]] = []
        outcomes = _run_batch(args, ids, failures, collect=collect)
        if collect:
            snaps = [o.metrics for o in outcomes if o.metrics is not None]
            events = [e for o in outcomes if o.events for e in o.events]
            _fold_supervision(parent_cap, snaps, events)
            _write_obs(args, snaps, events)
    if failures:
        print(render_failures(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
