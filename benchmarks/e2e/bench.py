"""The benchmark's workloads, their correctness gates and their metrics.

One call of :func:`measure` is one benchmark run: it builds the inputs
from ``seed``, sets the program up several times, runs an untimed
warm-up, then a fixed number of timed repetitions, and checks every
output.  The repetition count is ``round(seconds / rep_seconds)``, where
``rep_seconds`` is one repetition's duration on the reference machine
(2 vCPUs, Python 3.11.7), so a run lasts about ``seconds`` there and
the same ``(seed, seconds)`` always does the same work: counts and
digests of two commits compare exactly.

Every workload reports the same end-to-end metrics:

* ``throughput_per_s`` — work per second: simulated cycles per second
  of ``Machine.run`` (HTM) and conflict decisions per second (serve),
  the median over repetitions, or experiments per second of batch time;
* ``latency_p50_ms`` / ``latency_p99_ms`` — the time of one call a user
  waits on, pooled over repetitions (nearest rank; the "p99" is
  :func:`tail_quantile`): one Figure 3 cell from ``Machine(...)`` to
  the verified result (HTM), one ``submit()`` (serve), one
  ``run_experiment`` call (batch);
* ``setup_s`` — imports plus the median of several constructions;
* ``peak_rss_mb`` — the process's peak resident set.

Times are host seconds converted to reference seconds with the
yardstick sampled between repetitions, and in the batch about once a
second (``yardstick.py``, :class:`_Laps`); the raw host seconds and the
run's median slowness factor go to the ``DETAIL`` line.

The program only ever receives generated inputs through its public API
(``Machine``, ``DecisionService``, ``run_experiment``); all timing
happens here.  Repro modules are imported inside each workload, after
the entry point started the set-up clock, because imports are part of
set-up time.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field

from .tracing import LayerTracer, RunCollector
from .yardstick import Speedometer

__all__ = [
    "BatchSpec",
    "DEFAULT_SEED",
    "HtmSpec",
    "Outcome",
    "ServeSpec",
    "WORKLOADS",
    "measure",
]

#: Seed when none is given.
DEFAULT_SEED = 2018

#: Set-up samples per run; ``setup_s`` reports their median.
SETUP_SAMPLES = 5

#: Traced repetitions run untraced and traced, at this slowdown.
TRACE_COST = 2.8

#: Seconds a serve repetition may take before its unresolved requests
#: count as failed.
SERVE_TIMEOUT_S = 120.0

perf = time.perf_counter


@dataclass(frozen=True)
class HtmSpec:
    """A Figure 3 transactional-app machine (default ``MachineParams``
    otherwise, as Figure 3 builds it), run to a cycle horizon."""

    n_cores: int
    horizon: float
    rep_seconds: float


@dataclass(frozen=True)
class ServeSpec:
    """The decision service under a closed loop of ``clients``."""

    conflicts: int
    clients: int
    rep_seconds: float


@dataclass(frozen=True)
class BatchSpec:
    """Every registered experiment in quick mode (``ids=None``), or a
    subset, serially in one process with the result cache off."""

    ids: tuple[str, ...] | None = None
    rep_seconds: float = 23.5


WORKLOADS: dict[str, HtmSpec | ServeSpec | BatchSpec] = {
    # the 8-core cell of ``fig3_txapp --quick``: short cells let the
    # yardstick track the host closely (README.md, "Workloads")
    "htm_txapp": HtmSpec(n_cores=8, horizon=60_000.0, rep_seconds=0.36),
    # the stream ``repro serve --quick`` serves, short for the same reason
    "serve_closed": ServeSpec(conflicts=10_000, clients=8, rep_seconds=0.32),
    "quick_batch": BatchSpec(),
}


@dataclass
class Outcome:
    """What one run measured: metric values by name, the operation
    counts, and the digests and counts that must repeat exactly."""

    values: dict[str, float]
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


# -- helpers -------------------------------------------------------------------
def n_reps(seconds: float, rep_seconds: float) -> int:
    return max(1, round(seconds / rep_seconds))


def sub_seed(seed: int, index: int) -> int:
    """The machine seed of repetition ``index`` of a run seeded ``seed``."""
    digest = hashlib.sha256(f"e2e/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def quantile(samples, q: float) -> float:
    """Nearest-rank quantile: an actual sample, never interpolated."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(samples) -> float:
    """The 99th percentile, or, with fewer than 1000 samples, the highest
    quantile that still has ten samples beyond it (at least the median):
    a slowest-of-a-few sample measures the host's worst moment, not the
    program."""
    return quantile(samples, max(0.5, min(0.99, 1 - 10 / len(samples))))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sha(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _report_failure(what: str) -> None:
    print(f"e2e: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _timing_values(rates: list[float], latencies_s, setup_s: float) -> dict:
    """The end-to-end metrics every workload reports, from per-rep work
    rates and per-call latencies in reference seconds, once the timed
    work is done."""
    # read before the statistics below allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "throughput_per_s": quantile(rates, 0.5) if rates else 0.0,
        "latency_p50_ms": quantile(latencies_s, 0.50) * 1e3 if latencies_s else 0.0,
        "latency_p99_ms": tail_quantile(latencies_s) * 1e3 if latencies_s else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _to_reference(values: dict[str, float], slowness: float) -> dict:
    """Convert every time (``*_s``) and rate (``*_per_s``) in ``values``
    from host to reference seconds, in place."""
    for name, value in values.items():
        if name.endswith("_per_s"):
            values[name] = value * slowness
        elif name.endswith("_s"):
            values[name] = value / slowness
    return values


def layer_values(
    tracer: LayerTracer, traced: RunCollector, untraced: RunCollector
) -> dict[str, float]:
    """Per-layer metrics of the simulator, policy and estimator layers
    from one traced pass and the untraced pass over the same inputs."""
    totals, self_s = traced.totals, tracer.self_s
    commits, aborts = totals["tx_committed"], totals["tx_aborted"]
    hits, misses = totals["l1_hits"], totals["l1_misses"]
    return {
        "engine.events": traced.events,
        "engine.events_per_s": _ratio(untraced.events, untraced.run_s),
        "engine.self_s": self_s["engine"],
        "engine.cancelled": tracer.calls["EventQueue.cancel"],
        "core_model.self_s": self_s["core_model"],
        "core_model.ops": totals["ops_completed"],
        "core_model.fallback_ops": totals["fallback_ops"],
        "controller.calls": tracer.calls_of("CoreMemSystem."),
        "controller.self_s": self_s["controller"],
        "controller.commits": commits,
        "controller.aborts": aborts,
        "controller.commit_ratio": _ratio(commits, commits + aborts),
        "controller.grace_granted": traced.grace["grace_granted"],
        "controller.grace_expired": traced.grace["grace_expired"],
        "cache.calls": tracer.calls_of("L1Cache."),
        "cache.self_s": self_s["cache"],
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "directory.requests": tracer.calls["Directory.request"],
        "directory.self_s": self_s["directory"],
        "waits_for.calls": tracer.calls_of("Machine."),
        "waits_for.self_s": self_s["waits_for"],
        "conflict_policy.decides": tracer.calls_of(suffix=".decide"),
        "conflict_policy.self_s": self_s["conflict_policy"],
        "workloads.next_op_calls": tracer.calls_of(suffix=".next_op"),
        "workloads.self_s": self_s["workloads"],
        "estimators.self_s": self_s["estimators"],
    }


def _zero_workload_values() -> dict[str, float]:
    """Per-layer metrics owned by the serve and batch workloads, at 0."""
    from repro.experiments.registry import EXPERIMENTS

    values = {f"experiments.{exp_id}.wall_s": 0.0 for exp_id in EXPERIMENTS}
    values.update({
        "batch.htm_s": 0.0, "batch.mc_s": 0.0, "batch.scorecard_s": 0.0,
        "service.decisions": 0, "service.grant_ratio": 0.0,
        "service.regime_switches": 0, "service.plumbing_s": 0.0,
        "loadgen.gen_s": 0.0,
    })
    return values


# -- HTM machine workloads -------------------------------------------------------
@dataclass
class _HtmRep:
    wall: float  # Machine.run
    cell: float  # Machine(...) to the verified result
    digest: str
    events: int


def _htm(spec: HtmSpec, seed: int, seconds: float, trace: bool,
         t_entry: float) -> Outcome:
    from repro.htm import Machine, MachineParams, RandDelay
    from repro.workloads import TxAppWorkload

    import_s = perf() - t_entry
    params = MachineParams(n_cores=spec.n_cores)

    def build(machine_seed: int):
        workload = TxAppWorkload(work_cycles=100)
        machine = Machine(params, lambda core_id: RandDelay())
        machine.load(workload, seed=machine_seed)
        return machine, workload

    def rep(machine_seed: int) -> _HtmRep:
        t_cell = perf()
        machine, workload = build(machine_seed)
        t0 = perf()
        stats = machine.run(spec.horizon)
        wall = perf() - t0
        workload.verify(machine)
        machine.check_invariants()
        return _HtmRep(wall, perf() - t_cell, stats.digest(),
                       machine.sim.events_fired)

    rep_cost = spec.rep_seconds * (TRACE_COST if trace else 1.0)
    seeds = [sub_seed(seed, i) for i in range(n_reps(seconds, rep_cost))]
    setup = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf()
        build(seeds[0])
        setup.append(perf() - t0)

    failed = 0
    try:
        reference = rep(seeds[0]).digest  # warm-up, untimed
    except Exception:
        _report_failure("warm-up repetition")
        reference, failed = None, 1
    speed = Speedometer()
    speed.sample()
    if not trace:
        reps: list[_HtmRep] = []
        rates, cells = [], []  # reference seconds
        for i, machine_seed in enumerate(seeds):
            try:
                reps.append(rep(machine_seed))
            except Exception:
                _report_failure(f"repetition {i}")
                failed += 1
                continue
            finally:
                slowness = speed.sample()
            rates.append(spec.horizon * slowness / reps[-1].wall)
            cells.append(reps[-1].cell / slowness)
            if i == 0 and reps[0].digest != reference:
                print("e2e: repetition 0 digest differs from the warm-up's",
                      file=sys.stderr)
                failed += 1
        setup_s = (import_s + quantile(setup, 0.5)) / speed.slowness
        values = _timing_values(rates, cells, setup_s)
        return Outcome(values, len(seeds) + 1, failed, {
            "reps": len(seeds),
            "events": sum(r.events for r in reps),
            "digest": _sha([r.digest for r in reps]),
            "host_walls_s": [r.wall for r in reps],
            "slowness": speed.slowness,
        })

    tracer = LayerTracer()
    traced, untraced = RunCollector(tracer), RunCollector()
    untraced_s = traced_s = 0.0
    digests = []
    for i, machine_seed in enumerate(seeds):
        try:
            with untraced.installed():
                plain = rep(machine_seed)
            with traced.installed(), tracer.installed():
                timed = rep(machine_seed)
        except Exception:
            _report_failure(f"traced repetition {i}")
            failed += 1
            continue
        finally:
            speed.sample()
        if timed.digest != plain.digest:
            print(f"e2e: traced repetition {i} digest differs", file=sys.stderr)
            failed += 1
        untraced_s += plain.wall
        traced_s += timed.wall
        digests.append(plain.digest)
    values = layer_values(tracer, traced, untraced)
    values.update(_zero_workload_values())
    values["trace.overhead"] = _ratio(traced_s, untraced_s)
    detail = {"reps": len(seeds), "digest": _sha(digests),
              "unknown_modules": sorted(tracer.unknown_modules),
              "loop_s": tracer.loop_s, "slowness": speed.slowness}
    return Outcome(_to_reference(values, speed.slowness), len(seeds) + 1,
                   failed, detail)


# -- decision service ------------------------------------------------------------
@dataclass
class _ServeRep:
    wall: float
    latencies: array
    sha: str
    unresolved: int
    conflicts: int
    grants: int
    regime_switches: int


async def _closed_loop(service, events: list, clients: int) -> _ServeRep:
    """Serve ``events`` to ``clients`` closed-loop callers: client ``i``
    sends events ``i, i + clients, ...``, each after the previous one
    returned, and times every ``submit()`` from call to return."""
    import asyncio

    latencies = array("d")  # compact: the samples must not move peak RSS

    async def client(mine: list) -> None:
        for event in mine:
            t0 = perf()
            await service.submit(event)
            latencies.append(perf() - t0)

    t0 = perf()
    await service.start()
    tasks = [asyncio.create_task(client(events[i::clients]))
             for i in range(clients)]
    done, pending = await asyncio.wait(tasks, timeout=SERVE_TIMEOUT_S)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    await service.stop()
    wall = perf() - t0
    for task in done:
        if task.exception() is not None:
            print(f"e2e: serve client failed: {task.exception()!r}",
                  file=sys.stderr)
    sha = hashlib.sha256()
    for line in service.decision_log:
        sha.update(line.encode("ascii") + b"\n")
    return _ServeRep(wall, latencies, sha.hexdigest(),
                     len(events) - len(latencies), service.conflicts,
                     service.grants, service.regime_switches)


def _serve(spec: ServeSpec, seed: int, seconds: float, trace: bool,
           t_entry: float) -> Outcome:
    import asyncio

    from repro.serve.loadgen import default_config, generate
    from repro.serve.service import DecisionService

    import_s = perf() - t_entry

    async def setup_samples() -> list[float]:
        samples = []
        for _ in range(SETUP_SAMPLES):
            t0 = perf()
            service = DecisionService(seed=seed)
            await service.start()
            samples.append(perf() - t0)
            await service.stop()
        return samples

    setup_s = import_s + quantile(asyncio.run(setup_samples()), 0.5)
    t0 = perf()
    events = list(generate(seed, default_config(quick=True).scaled(spec.conflicts)))
    gen_s = perf() - t0

    def rep() -> _ServeRep:
        return asyncio.run(
            _closed_loop(DecisionService(seed=seed), events, spec.clients)
        )

    reps = [rep()]  # warm-up, untimed
    speed = Speedometer()
    speed.sample()
    slowness = []  # of each timed repetition
    if trace:
        # untraced, traced, untraced: the traced repetition is compared
        # with the mean of its neighbours, so a drift cancels
        tracer = LayerTracer()
        for traced_rep in (False, True, False):
            with tracer.installed() if traced_rep else contextlib.nullcontext():
                reps.append(rep())
            slowness.append(speed.sample())
    else:
        for _ in range(n_reps(seconds, spec.rep_seconds)):
            reps.append(rep())
            slowness.append(speed.sample())
    # every repetition serves the same stream, so every decision log
    # must hash alike; a repetition that differs fails all its requests
    failed = sum(r.unresolved if r.sha == reps[0].sha else len(events)
                 for r in reps)
    timed = reps[1:]
    detail = {"reps": len(timed), "requests": len(events),
              "conflicts": timed[0].conflicts, "grants": timed[0].grants,
              "regime_switches": timed[0].regime_switches,
              "decision_log_sha256": timed[0].sha,
              "slowness": speed.slowness}
    attempted = len(events) * len(reps)
    if not trace:
        latencies = array("d")  # reference seconds
        for r, s in zip(timed, slowness):
            latencies.extend(lat / s for lat in r.latencies)
        values = _timing_values(
            [r.conflicts * s / r.wall for r, s in zip(timed, slowness)],
            latencies,
            setup_s / speed.slowness,
        )
        detail["latency_samples"] = len(latencies)
        detail["host_walls_s"] = [r.wall for r in timed]
        return Outcome(values, attempted, failed, detail)

    before, traced_s, after = (r.wall / s for r, s in zip(timed, slowness))
    traced = timed[1]
    values = layer_values(tracer, RunCollector(), RunCollector())
    values.update(_zero_workload_values())
    policy_s = tracer.self_s["conflict_policy"] + tracer.self_s["estimators"]
    values.update({
        "service.decisions": traced.conflicts,
        "service.grant_ratio": _ratio(traced.grants, traced.conflicts),
        "service.regime_switches": traced.regime_switches,
        "service.plumbing_s": traced.wall - policy_s,
        "loadgen.gen_s": gen_s,
        "trace.overhead": _ratio(traced_s, (before + after) / 2),
    })
    return Outcome(_to_reference(values, speed.slowness), attempted, failed,
                   detail)


# -- the quick batch -------------------------------------------------------------
@dataclass
class _BatchRep:
    host: dict[str, float]   # experiment -> host seconds
    walls: dict[str, float]  # experiment -> reference seconds
    rows: dict[str, str]     # experiment -> its rows, canonical JSON
    failed: int

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    @property
    def rows_sha(self) -> str:
        return _sha([f"{e}\n{self.rows[e]}" for e in sorted(self.rows)])


class _Laps:
    """A stretch of host time cut into laps by yardstick samples, each
    lap converted with the slowness around it.  A batch laps after every
    experiment and, through :meth:`lap_if_due`, inside the long ones,
    which one pair of samples would bracket too coarsely."""

    #: Host seconds after which a machine run or trial batch ends a lap.
    DUE_S = 1.0

    def __init__(self, speed: Speedometer) -> None:
        self.speed = speed
        self.host_s = self.ref_s = 0.0
        speed.sample()
        self._t0 = perf()

    def lap(self) -> None:
        host = perf() - self._t0
        self.host_s += host
        self.ref_s += host / self.speed.sample()
        self._t0 = perf()

    def lap_if_due(self) -> None:
        if perf() - self._t0 >= self.DUE_S:
            self.lap()


def _one_batch(ids: tuple[str, ...], laps: _Laps) -> _BatchRep:
    """Run every experiment once, as ``repro all --quick --no-cache``
    does (sorted ids, default experiment seed), ending a lap after
    each."""
    from repro.experiments.registry import run_experiment

    host: dict[str, float] = {}
    walls: dict[str, float] = {}
    rows: dict[str, str] = {}
    failed = 0
    for exp_id in sorted(ids):
        host_s, ref_s = laps.host_s, laps.ref_s
        try:
            result = run_experiment(exp_id, quick=True, cache=None)
        except Exception:
            _report_failure(f"experiment {exp_id}")
            failed += 1
            continue
        finally:
            laps.lap()
            host[exp_id] = laps.host_s - host_s
            walls[exp_id] = laps.ref_s - ref_s
        rows[exp_id] = json.dumps(result.rows, sort_keys=True, default=repr)
        if exp_id == "scorecard":
            total = [r for r in result.rows if r["artifact"] == "TOTAL"]
            if not (total and total[0]["reproduced"] is True):
                print(f"e2e: scorecard TOTAL is not yes: {total}",
                      file=sys.stderr)
                failed += 1
    return _BatchRep(host, walls, rows, failed)


def _batch(spec: BatchSpec, seed: int, seconds: float, trace: bool,
           t_entry: float) -> Outcome:
    # ``seed`` does not enter: the batch is what users run, at the
    # experiments' default seed (at some other seeds the quick scorecard
    # does not grade every claim, which would count as a failure)
    from repro.experiments.registry import EXPERIMENTS

    import_s = perf() - t_entry  # the registry import is the whole set-up
    ids = spec.ids if spec.ids is not None else tuple(sorted(EXPERIMENTS))
    speed = Speedometer()
    laps = _Laps(speed)
    if not trace:
        with RunCollector(after=laps.lap_if_due).installed():
            reps = [_one_batch(ids, laps)
                    for _ in range(n_reps(seconds, spec.rep_seconds))]
        failed = sum(r.failed for r in reps)
        if len({r.rows_sha for r in reps}) != 1:
            print("e2e: batch repetitions disagree on rows", file=sys.stderr)
            failed += 1
        values = _timing_values([len(ids) / r.wall for r in reps],
                                [w for r in reps for w in r.walls.values()],
                                import_s / speed.slowness)
        return Outcome(values, len(ids) * len(reps), failed, {
            "reps": len(reps), "experiments": len(ids),
            "rows_sha256": reps[0].rows_sha,
            "host_walls_s": [sum(r.host.values()) for r in reps],
            "slowness": speed.slowness,
        })

    untraced = RunCollector(after=laps.lap_if_due)
    with untraced.installed():
        plain = _one_batch(ids, laps)
    # The traced pass leaves out the scorecard: it re-runs the other
    # experiments' quick rows, a third of the batch, and with it the
    # traced run would outlast its time limit on a slow host.
    traced_ids = tuple(e for e in ids if e != "scorecard")
    tracer = LayerTracer()
    traced = RunCollector(tracer)
    with traced.installed(), tracer.installed():
        traced_rep = _one_batch(traced_ids, laps)
    failed = plain.failed + traced_rep.failed
    if traced_rep.rows != {e: plain.rows.get(e) for e in traced_ids}:
        print("e2e: traced batch rows differ from the untraced batch's",
              file=sys.stderr)
        failed += 1
    values = layer_values(tracer, traced, untraced)
    values.update(_zero_workload_values())
    values.update({"batch.htm_s": untraced.run_s, "batch.mc_s": untraced.mc_s})
    _to_reference(values, speed.slowness)
    # the untraced batch's experiments, converted lap by lap
    values.update({f"experiments.{exp_id}.wall_s": wall
                   for exp_id, wall in plain.walls.items()})
    values["batch.scorecard_s"] = plain.walls.get("scorecard", 0.0)
    values["trace.overhead"] = _ratio(
        traced_rep.wall, sum(plain.walls.get(e, 0.0) for e in traced_ids))
    return Outcome(values, len(ids) + len(traced_ids), failed, {
        "experiments": len(ids),
        "traced_experiments": len(traced_ids),
        "rows_sha256": plain.rows_sha,
        "unknown_modules": sorted(tracer.unknown_modules),
        "loop_s": tracer.loop_s,
        "slowness": speed.slowness,
    })


# -- entry -----------------------------------------------------------------------
_RUNNERS = {HtmSpec: _htm, ServeSpec: _serve, BatchSpec: _batch}


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    t_entry: float,
    spec: HtmSpec | ServeSpec | BatchSpec | None = None,
) -> Outcome:
    """One benchmark run of ``workload`` (``spec`` overrides its
    configuration, for miniature runs in the tests).  ``t_entry`` is
    the ``perf_counter`` reading at the entry point: set-up time runs
    from there."""
    spec = spec if spec is not None else WORKLOADS[workload]
    return _RUNNERS[type(spec)](spec, seed, seconds, trace, t_entry)
