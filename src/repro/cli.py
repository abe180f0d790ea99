"""Command-line entry point: regenerate the paper's tables and figures.

Examples::

    python -m repro --list
    python -m repro fig2a tab_ratios
    python -m repro all --quick
    python -m repro fig3_stack --seed 7 --out results/
    python -m repro all --quick --keep-going --timeout 120 --resume
    python -m repro all --quick --jobs 4
    python -m repro fig3_stack --jobs 8          # intra-experiment shards
    python -m repro all --no-cache --cache-dir /tmp/repro-cache
    python -m repro lint --list-rules
    python -m repro cache verify
    python -m repro all --quick --jobs 4 --chaos 1234 --resume
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
  (ordered reporting, single-writer checkpointing, process-level
  timeout kills); a single experiment runs in this process and fans its
  shards out over the workers; at ``--jobs 1`` everything runs in this
  process.  Rows are invariant to ``--jobs`` — only wall clock changes.
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
* ``--resume`` (with ``--checkpoint``, or the default checkpoint path)
  skips experiments a previous invocation already completed, so a
  crashed or killed batch picks up where it left off.  Checkpoints are
  an append-only, fsync-committed JSONL *journal* with per-record
  checksums: a crash mid-write costs at most the torn tail, which
  recovery truncates back to the last durable record.
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

#: Default checkpoint location when ``--resume`` is given without an
#: explicit ``--checkpoint`` (and no ``--out`` directory to put it in).
DEFAULT_CHECKPOINT = pathlib.Path(".repro-checkpoint.json")

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
        "--checkpoint",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="record per-experiment completion in an append-only "
        "checkpoint journal (default with --resume: "
        f"<out>/checkpoint.json, else {DEFAULT_CHECKPOINT})",
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
        "--resume",
        action="store_true",
        help="skip experiments the checkpoint already marks completed "
        "(same --quick/--seed run only)",
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


def _checkpoint_path(args: argparse.Namespace) -> pathlib.Path | None:
    """Where checkpoint state lives, or None when checkpointing is off
    (neither --checkpoint nor --resume was requested)."""
    if args.checkpoint is not None:
        return args.checkpoint
    if not args.resume:
        return None
    if args.out is not None:
        return args.out / "checkpoint.json"
    return DEFAULT_CHECKPOINT


def _open_journal(args: argparse.Namespace, ckpt_path: pathlib.Path):
    """Open (recovering) the checkpoint journal; report what recovery
    did.  A journal from a different ``(quick, seed)`` configuration, or
    a file that is not a journal, is moved aside — resuming across
    configurations would silently mix incomparable results.  Journal
    records land in completion order, so their ``checkpoint_written``
    events stay out of the per-experiment captures that feed
    ``--trace-out`` (which must stay invariant to ``--jobs``)."""
    from repro.parallel import CheckpointJournal

    journal = CheckpointJournal(
        ckpt_path, quick=args.quick, seed=args.seed
    ).open()
    rotated = journal.rotated
    if rotated is not None and rotated.header is None:
        print(
            f"checkpoint {ckpt_path} is not a checkpoint journal; "
            f"moved it to {ckpt_path}.old",
            file=sys.stderr,
        )
    elif rotated is not None:
        header = rotated.header
        print(
            f"checkpoint {ckpt_path} is from a different run "
            f"(quick={header.get('quick')!r}, seed={header.get('seed')!r}); "
            f"ignoring it",
            file=sys.stderr,
        )
    elif journal.recovery is not None and journal.recovery.truncated:
        rec = journal.recovery
        print(
            f"checkpoint {ckpt_path}: recovered a torn tail "
            f"({rec.dropped_records} record(s), {rec.dropped_bytes} bytes "
            f"dropped); resuming from the last durable record",
            file=sys.stderr,
        )
    return journal


def _mark_done(journal, exp_id: str, entry: dict) -> None:
    """Durably record one experiment's final status (no-op without a
    journal)."""
    if journal is not None:
        journal.mark_done(exp_id, entry)


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
#: counters the supervised pool and journal recovery increment, and the
#: event kinds they emit on the parent's bus.  Fault-free runs produce
#: none of either, so the obs artifacts stay byte-identical at any
#: --jobs; under chaos they carry the restart/recovery counts.
_SUPERVISION_COUNTERS = frozenset(
    {
        "worker_crashes",
        "worker_restarts",
        "task_reexecutions",
        "worker_heartbeat_timeouts",
        "worker_parent_kills",
        "degraded_to_serial",
        "journal_recoveries",
    }
)
_SUPERVISION_KINDS = frozenset(
    {
        "worker_crashed",
        "worker_restarted",
        "journal_recovered",
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
    journal,
    done: dict[str, dict],
    failures: list[dict[str, object]],
    *,
    collect: bool = False,
):
    """Run ``ids`` on the supervised pool; return their outcomes.

    At ``--jobs 1`` (or for a single experiment) the pool runs them in
    this process.  The parent stays the only checkpoint writer:
    per-experiment ``done`` records land in completion order (fsync'd
    journal appends), while results are *emitted* in submission order.
    """
    from repro.parallel import (
        ExperimentTask,
        RetryPolicy,
        SupervisedPool,
        source_fingerprint,
    )

    chaos = None
    retry = RetryPolicy(max_worker_restarts=args.max_worker_restarts)
    if args.chaos is not None:
        from repro.faults import ChaosPlan

        chaos = ChaosPlan(seed=args.chaos)
        if retry.max_task_reexecutions < chaos.safe_attempt:
            # chaos is suppressed from safe_attempt on; the budget must
            # reach it or a chaosed task could fail before its safe run
            retry = RetryPolicy(
                max_task_reexecutions=chaos.safe_attempt,
                max_worker_restarts=retry.max_worker_restarts,
            )
    pool = SupervisedPool(
        args.jobs, retry=retry, timeout=args.timeout, chaos=chaos
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
        # completion order: checkpoint first, so a kill right here loses
        # at most the in-flight experiments, never a finished one
        if outcome.ok:
            done[outcome.exp_id] = {
                "status": "ok",
                "elapsed_s": round(outcome.elapsed_s, 2),
            }
        else:
            failure = {
                "exp_id": outcome.exp_id,
                "error_type": outcome.error_type,
                "error": outcome.error,
            }
            if outcome.exit_cause is not None:
                # the real reason the worker died (signal/exit/timeout)
                failure["exit_cause"] = outcome.exit_cause
            failures.append(failure)
            done[outcome.exp_id] = {
                "status": "failed",
                "elapsed_s": round(outcome.elapsed_s, 2),
                **{k: v for k, v in failure.items() if k != "exp_id"},
            }
        _mark_done(journal, outcome.exp_id, done[outcome.exp_id])
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
    journal = None
    try:
        # the parent-side capture records supervision activity (worker
        # crashes/restarts, journal recoveries); fault-free runs record
        # nothing, keeping --metrics-out/--trace-out byte-identical at
        # any --jobs
        with (obs_capture() if collect else nullcontext()) as parent_cap:
            ckpt_path = _checkpoint_path(args)
            done: dict[str, dict] = {}
            if ckpt_path is not None:
                journal = _open_journal(args, ckpt_path)
                if args.resume:
                    done = journal.done_map()

            failures: list[dict[str, object]] = []
            run_ids: list[str] = []
            for exp_id in ids:
                if args.resume and done.get(exp_id, {}).get("status") == "ok":
                    print(f"[{exp_id} already completed; skipping (--resume)]")
                    continue
                run_ids.append(exp_id)

            outcomes = _run_batch(
                args, run_ids, journal, done, failures, collect=collect
            )
            if collect:
                snaps = [o.metrics for o in outcomes if o.metrics is not None]
                events = [e for o in outcomes if o.events for e in o.events]
                _fold_supervision(parent_cap, snaps, events)
                _write_obs(args, snaps, events)
            if failures:
                print(render_failures(failures), file=sys.stderr)
                return 1
            return 0
    finally:
        if journal is not None:
            journal.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
