"""Judging result sets, and recording the seed-state baseline.

A result set is the JSON ``python -m benchmarks.e2e run --out`` writes:
``{"runs": [{"workload", "seed", "seconds", "trace", "exit_code",
"result", "detail"}, ...]}``.

:func:`compare` applies the rules of a performance claim to a parent
set and a change set measured with the same seeds:

* every run must have exited 0 with ``failed == 0``;
* runs of the same workload, seed and length must agree exactly on
  their digests and counts (the ``DETAIL`` line, and count metrics of
  traced runs);
* for every end-to-end metric and workload, the change's median may be
  worse than the parent's by at most the metric's bound in
  ``BENCHMARK.json``;
* a *gain* is reported only when the change wins at least 9 of 10
  seed-paired runs and the medians differ by more than the parent's
  interquartile range; the same rule, lost, flags a change as *slower*
  even inside the bound.  A metric whose parent spread is wider than
  its bound is reported as unresolved rather than unchanged.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

__all__ = ["compare", "load_runs", "summarize", "write_baseline",
           "render_baseline"]

PACKAGE = Path(__file__).resolve().parent
BASELINE_PATH = PACKAGE / "baseline.json"
README_PATH = PACKAGE / "README.md"
BEGIN, END = "<!-- baseline:begin -->", "<!-- baseline:end -->"

#: DETAIL keys that are timings, not outputs, and may differ between runs
TIMING_DETAIL = {"loop_s", "host_walls_s", "slowness"}

#: Share of paired runs the change must win to claim a gain.
WIN_SHARE = 0.9


def load_runs(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def summarize(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them,
    and the interquartile range as a share of the median."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def _metric(run: dict, name: str) -> float | None:
    result = run["result"] or {}
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else entry["value"]


def _key(run: dict) -> tuple:
    return (run["workload"], run["seed"], run["seconds"], run["trace"])


def _identity_problems(parent: list[dict], change: list[dict],
                       spec: dict) -> list[str]:
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    by_key = {_key(run): run for run in parent}
    problems = []
    for run in change:
        other = by_key.get(_key(run))
        if other is None:
            continue
        mine = {k: v for k, v in run["detail"].items() if k not in TIMING_DETAIL}
        theirs = {k: v for k, v in other["detail"].items()
                  if k not in TIMING_DETAIL}
        label = f"{run['workload']} seed {run['seed']}"
        if mine != theirs:
            diff = sorted(k for k in mine.keys() | theirs.keys()
                          if mine.get(k) != theirs.get(k))
            problems.append(f"{label}: outputs differ in {', '.join(diff)}")
        if run["trace"]:
            diff = [n for n in counts if _metric(run, n) != _metric(other, n)]
            if diff:
                problems.append(f"{label}: counts differ in {', '.join(diff)}")
    return problems


def _judge(metric: dict, parent: dict, change: dict, wins: int, losses: int,
           pairs: int) -> tuple[str, float]:
    """(verdict, share by which the change is worse) for one metric.

    ``gain`` and ``slower`` need the pair rule: the change wins (loses)
    at least 9 of 10 seed pairs and the medians differ by more than the
    parent's interquartile range.  Only ``REGRESSION`` fails."""
    lower = metric["better"] == "lower"
    p, c = parent["median"], change["median"]
    worse = ((c - p) if lower else (p - c)) / p if p else 0.0
    if worse > metric["bound"]:
        return "REGRESSION", worse
    significant = pairs and abs(c - p) > parent["q3"] - parent["q1"]
    if significant and wins >= WIN_SHARE * pairs and worse < 0:
        return "gain", worse
    if significant and losses >= WIN_SHARE * pairs and worse > 0:
        return "slower", worse
    if parent["spread"] > metric["bound"]:
        return "unresolved", worse
    return "within bound", worse


def _pair_counts(metric: dict, parent: list[dict], change: list[dict]):
    """(change wins, change losses, pairs) over runs with the same seed;
    ties count for neither side."""
    name, lower = metric["name"], metric["better"] == "lower"
    by_seed = {run["seed"]: _metric(run, name) for run in parent}
    wins = losses = pairs = 0
    for run in change:
        p, c = by_seed.get(run["seed"]), _metric(run, name)
        if p is None or c is None:
            continue
        pairs += 1
        wins += (c < p) if lower else (c > p)
        losses += (c > p) if lower else (c < p)
    return wins, losses, pairs


def compare(parent: list[dict], change: list[dict],
            spec: dict) -> tuple[bool, list[str]]:
    """Judge ``change`` against ``parent``; (passed, report lines)."""
    lines: list[str] = []
    ok = True
    for run in parent + change:
        result = run["result"]
        if run["exit_code"] != 0 or result is None or result["failed"]:
            ok = False
            lines.append(f"FAILED RUN: {run['workload']} seed {run['seed']} "
                         f"exit {run['exit_code']}")
    problems = _identity_problems(parent, change, spec)
    ok &= not problems
    lines += [f"OUTPUT MISMATCH: {p}" for p in problems]
    traced = any(run["trace"] for run in parent + change)
    metrics = spec["per_layer"] if traced else spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload and r["result"]]
        c_runs = [r for r in change if r["workload"] == workload and r["result"]]
        if not p_runs or not c_runs:
            continue
        lines.append(f"{workload}: {len(p_runs)} parent runs, "
                     f"{len(c_runs)} change runs")
        for metric in metrics:
            pv = [v for r in p_runs if (v := _metric(r, metric["name"])) is not None]
            cv = [v for r in c_runs if (v := _metric(r, metric["name"])) is not None]
            if not pv or not cv:
                continue
            ps, cs = summarize(pv), summarize(cv)
            row = (f"  {metric['name']:<32} {ps['median']:>12.6g} "
                   f"[{ps['q1']:.4g}, {ps['q3']:.4g}]  ->  {cs['median']:>12.6g} "
                   f"[{cs['q1']:.4g}, {cs['q3']:.4g}] {metric['unit']}")
            if "bound" not in metric:  # per-layer: no bound, no verdict
                lines.append(row)
                continue
            wins, losses, pairs = _pair_counts(metric, p_runs, c_runs)
            verdict, worse = _judge(metric, ps, cs, wins, losses, pairs)
            ok &= verdict != "REGRESSION"
            lines.append(f"{row}  worse {worse:+.1%} (bound {metric['bound']:.0%},"
                         f" spread {ps['spread']:.1%}, wins {wins}/{pairs}) "
                         f"{verdict}")
    lines.append("PASS" if ok else "FAIL")
    return ok, lines


# -- the seed-state baseline ---------------------------------------------------------
def write_baseline(set_a: list[dict], set_b: list[dict], traced: list[dict],
                   spec: dict) -> dict:
    """Write ``baseline.json`` from two agreeing end-to-end sets (and a
    traced set, for the layer split) and re-render the README's
    baseline section from it."""
    baseline: dict = {"end_to_end": {}, "per_layer": {},
                      "seeds": {"a": sorted({r["seed"] for r in set_a}),
                                "b": sorted({r["seed"] for r in set_b})}}
    for w in spec["workloads"]:
        workload = w["name"]
        rows = {}
        for metric in spec["end_to_end"]:
            row = {"unit": metric["unit"]}
            for tag, runs in (("a", set_a), ("b", set_b)):
                values = [_metric(r, metric["name"]) for r in runs
                          if r["workload"] == workload]
                values = [v for v in values if v is not None]
                if values:
                    row[tag] = summarize(values)
            rows[metric["name"]] = row
        baseline["end_to_end"][workload] = rows
        layer_runs = [r for r in traced if r["workload"] == workload]
        if layer_runs:
            baseline["per_layer"][workload] = {
                m["name"]: statistics.median(
                    _metric(r, m["name"]) for r in layer_runs)
                for m in spec["per_layer"]
            }
    with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
        # unsorted: the README renders workloads and metrics in this order
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    text = README_PATH.read_text(encoding="utf-8")
    head, rest = text.split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    README_PATH.write_text(
        head + BEGIN + "\n" + render_baseline(baseline) + END + tail,
        encoding="utf-8",
    )
    return baseline


#: Layer self-time metrics shown in the README's split table.
SPLIT = ("engine", "core_model", "controller", "cache", "directory",
         "waits_for", "conflict_policy", "workloads", "estimators")


def render_baseline(baseline: dict) -> str:
    """The README's baseline section (markdown), from ``baseline.json``."""
    seeds = baseline["seeds"]
    out = [f"Set A seeds {seeds['a']}; set B seeds {seeds['b']}. "
           "Median [first quartile, third quartile] over each set's runs, "
           "and the spread: the interquartile range as a share of the "
           "median.", ""]
    for workload, rows in baseline["end_to_end"].items():
        out += [f"**{workload}**", "",
                "| metric | unit | set A | set B |", "|---|---|---|---|"]
        for name, row in rows.items():
            cells = []
            for tag in ("a", "b"):
                s = row.get(tag)
                cells.append("—" if s is None else
                             f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                             f" {s['spread']:.1%}")
            out.append(f"| `{name}` | {row['unit']} | {cells[0]} | {cells[1]} |")
        out.append("")
    if baseline["per_layer"]:
        workloads = list(baseline["per_layer"])
        out += ["Traced self time per layer, seconds (share of the summed "
                "layer time):", "",
                "| layer | " + " | ".join(workloads) + " |",
                "|---|" + "---|" * len(workloads)]
        totals = {w: sum(baseline["per_layer"][w][f"{layer}.self_s"]
                         for layer in SPLIT) for w in workloads}
        for layer in SPLIT:
            cells = []
            for w in workloads:
                value = baseline["per_layer"][w][f"{layer}.self_s"]
                share = value / totals[w] if totals[w] else 0.0
                cells.append(f"{value:.3g} ({share:.0%})")
            out.append(f"| {layer} | " + " | ".join(cells) + " |")
        out.append("| trace overhead | " + " | ".join(
            f"{baseline['per_layer'][w]['trace.overhead']:.2f}x"
            for w in workloads) + " |")
        out.append("")
    return "\n".join(out)
