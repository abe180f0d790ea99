"""Command lines of the end-to-end benchmark.

``bench_main`` is one run (``run.py``); ``main`` serves
``python -m benchmarks.e2e``:

* ``run``      — run workloads x seeds, each in a fresh ``run.py``
  process, one at a time, and save every result to ``--out``;
* ``compare``  — judge a change's result set against a parent's;
* ``baseline`` — record the seed-state numbers from two result sets in
  ``baseline.json`` and the README.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

from .bench import DEFAULT_SEED, WORKLOADS, measure

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Seconds one ``run.py`` process may take (the first one compiles).
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def result_line(outcome, spec: dict, trace: bool) -> dict:
    """The run's last stdout line: every metric ``spec`` names for this
    mode, with its unit.  Raises ``KeyError`` on a metric the run did
    not measure and ``ValueError`` on a non-finite one."""
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value = outcome.values[entry["name"]]
        if not math.isfinite(value):
            raise ValueError(f"metric {entry['name']} is {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def bench_main(argv: list[str], *, t_entry: float) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description="one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = load_spec()
    trace = bool(args.trace)
    outcome = measure(args.workload, args.seed, args.seconds, trace,
                      t_entry=t_entry)
    result = result_line(outcome, spec, trace)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": trace, **outcome.detail}
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- python -m benchmarks.e2e run -------------------------------------------------
def _one_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(PACKAGE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    run = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "exit_code": None, "result": None, "detail": {}}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2e: {workload} seed {seed} timed out", file=sys.stderr)
        return run
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(line[len("DETAIL "):]) for line in lines
                   if line.startswith("DETAIL ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    run.update(exit_code=proc.returncode, result=result, detail=detail)
    return run


def _summary(run: dict) -> str:
    head = f"{run['workload']:<13} seed={run['seed']:<6} exit={run['exit_code']}"
    if run["result"] is None:
        return head + " (no result)"
    result = run["result"]
    metrics = " ".join(f"{name}={m['value']:.6g} {m['unit']}"
                       for name, m in result["metrics"].items())
    return f"{head} failed={result['failed']}/{result['attempted']} {metrics}"


def cmd_run(args) -> int:
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = args.seed or [DEFAULT_SEED]
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in seeds:
        for workload in workloads:
            run = _one_run(workload, seed, seconds, args.trace)
            print(_summary(run), flush=True)
            runs.append(run)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    bad = [r for r in runs if r["exit_code"] != 0 or r["result"] is None]
    return 1 if bad else 0


def cmd_compare(args) -> int:
    from .compare import compare, load_runs

    ok, lines = compare(load_runs(args.parent), load_runs(args.change),
                        load_spec())
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_baseline(args) -> int:
    from .compare import load_runs, write_baseline

    write_baseline(load_runs(args.set_a), load_runs(args.set_b),
                   load_runs(args.trace) if args.trace else [], load_spec())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads x seeds, save results")
    run.add_argument("--seed", type=int, action="append",
                     help=f"repeatable (default {DEFAULT_SEED})")
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                     help="repeatable (default: every workload)")
    run.add_argument("--seconds", type=float,
                     help="seconds per run (default: BENCHMARK.json)")
    run.add_argument("--trace", action="store_true",
                     help="per-layer metrics instead of end-to-end ones")
    run.add_argument("--out", required=True, help="result set (JSON)")
    run.set_defaults(func=cmd_run)
    cmp = sub.add_parser("compare", help="judge a change against a parent")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    cmp.set_defaults(func=cmd_compare)
    base = sub.add_parser("baseline",
                          help="record two agreeing sets as the baseline")
    base.add_argument("set_a")
    base.add_argument("set_b")
    base.add_argument("--trace", help="a traced result set for the layer split")
    base.set_defaults(func=cmd_baseline)
    args = parser.parse_args(argv)
    return args.func(args)
