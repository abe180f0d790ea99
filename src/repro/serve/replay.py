"""The in-process replay harness: drive a stream through the service.

:func:`run_replay` feeds a generated request stream
(:mod:`repro.serve.loadgen`) through a :class:`DecisionService` with
``clients`` concurrent submitter coroutines.  Events are sharded
round-robin over the submitters (so each submitter's sequence numbers
ascend, the service's in-order guarantee holds, and progress is
deadlock-free), with a bounded per-submitter queue providing
backpressure so millions of events stream through constant memory.

The report carries the two things the ROADMAP's serving milestone
asks for: **sustained decisions/sec** (conflict decisions over the
replay's wall clock) and **p50/p99 decision latency** read from the
service's fixed-edge histograms via
:meth:`~repro.obs.metrics.Histogram.quantile` — plus the canonical
decision log whose byte-identity across seeds/concurrency the tests
and CI gate.  :func:`bench_payload` shapes a report into the
schema-validated ``BENCH_serve.json`` artifact.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field

from repro.errors import ExperimentTimeoutError, InvalidParameterError, SimulationError
from repro.htm.conflict_policy import CyclePolicy
from repro.htm.params import MachineParams
from repro.obs.tracebus import get_bus
from repro.serve.loadgen import LoadGenConfig, default_config, generate
from repro.serve.service import DecisionService

__all__ = ["ReplayReport", "run_replay", "bench_payload"]

#: Per-submitter outstanding-event bound (backpressure window).
DEFAULT_WINDOW = 64


@dataclass
class ReplayReport:
    """Everything one replay produced."""

    requests: int
    conflicts: int
    commits: int
    grants: int
    aborts: int
    regime_switches: int
    clients: int
    phases: int
    wall_s: float
    decisions_per_sec: float
    p50_us: float
    p99_us: float
    service_p50_us: float
    service_p99_us: float
    grid_builds: int
    decision_log: list[str] = field(repr=False)
    decide_latency: dict = field(repr=False)
    service_latency: dict = field(repr=False)

    def decision_log_sha256(self) -> str:
        digest = hashlib.sha256()
        for line in self.decision_log:
            digest.update(line.encode("ascii"))
            digest.update(b"\n")
        return digest.hexdigest()


async def _replay_async(
    seed: int | None,
    config: LoadGenConfig,
    service: DecisionService,
    clients: int,
    window: int,
) -> None:
    queues = [asyncio.Queue(maxsize=window) for _ in range(clients)]
    errors: dict[int, Exception] = {}

    async def produce() -> None:
        bus = get_bus()
        last_phase = -1
        for i, event in enumerate(generate(seed, config)):
            if bus.enabled and event.phase != last_phase:
                bus.emit(
                    float(event.seq),
                    "loadgen_phase",
                    phase=event.phase,
                    first_seq=event.seq,
                    mu=config.phases[event.phase].mu_cycles,
                    rate=config.phases[event.phase].rate,
                )
                last_phase = event.phase
            await queues[i % clients].put(event)
        for q in queues:
            await q.put(None)

    async def submit(queue: asyncio.Queue) -> None:
        while (event := await queue.get()) is not None:
            try:
                await service.submit(event)
            except ExperimentTimeoutError:
                raise
            except Exception as exc:  # keep draining; raised once served
                errors[event.seq] = exc

    # a task that dies fails the gather at once; the loop cancels the rest
    await asyncio.gather(produce(), *map(submit, queues))
    await service.stop()
    if errors:
        seq, exc = min(errors.items())
        raise SimulationError(f"the decision for seq {seq} raised {exc!r}") from exc


def run_replay(
    seed: int | None = None,
    config: LoadGenConfig | None = None,
    *,
    clients: int = 8,
    window: int = DEFAULT_WINDOW,
    quick: bool = True,
    policy: CyclePolicy | None = None,
    params: MachineParams | None = None,
) -> ReplayReport:
    """Replay a generated stream through a fresh service; report.

    ``clients`` is the number of concurrent in-process submitters the
    stream is multiplexed over (the simulated client-id space is the
    config's, up to millions); the decision log is invariant to it.
    A decision that raises fails the replay, naming its seq, once the
    stream is served (:class:`SimulationError`).
    """
    if clients < 1:
        raise InvalidParameterError(f"clients must be >= 1, got {clients}")
    if window < 1:
        raise InvalidParameterError(f"window must be >= 1, got {window}")
    if config is None:
        config = default_config(quick=quick)
    service = DecisionService(seed=seed, policy=policy, params=params)

    async def main() -> None:
        await service.start()
        await _replay_async(seed, config, service, clients, window)

    start = time.perf_counter()
    asyncio.run(main())
    wall_s = time.perf_counter() - start

    requests = service.conflicts + service.commits
    return ReplayReport(
        requests=requests,
        conflicts=service.conflicts,
        commits=service.commits,
        grants=service.grants,
        aborts=service.aborts,
        regime_switches=service.regime_switches,
        clients=clients,
        phases=len(config.phases),
        wall_s=wall_s,
        decisions_per_sec=(
            service.conflicts / wall_s if wall_s > 0 else float(requests)
        ),
        p50_us=service.decide_latency.quantile(0.50),
        p99_us=service.decide_latency.quantile(0.99),
        service_p50_us=service.service_latency.quantile(0.50),
        service_p99_us=service.service_latency.quantile(0.99),
        grid_builds=getattr(service.policy, "grid_builds", 0),
        decision_log=service.decision_log,
        decide_latency=service.decide_latency.snapshot(),
        service_latency=service.service_latency.snapshot(),
    )


def bench_payload(
    report: ReplayReport, *, quick: bool, seed: int | None
) -> dict:
    """Shape a replay report into the ``BENCH_serve.json`` payload.

    The caller validates and writes it through
    :func:`benchmarks.schema.dump_payload` (kind ``"serve"``) — write
    time is the validation point, like every other bench artifact.
    """
    import multiprocessing
    import platform

    return {
        "schema_version": 1,
        "suite": "serve",
        "generated_by": "repro.serve.replay",
        "quick": quick,
        "seed": -1 if seed is None else int(seed),
        "python": platform.python_version(),
        "cpu_count": multiprocessing.cpu_count(),
        "requests": report.requests,
        "conflicts": report.conflicts,
        "commits": report.commits,
        "grants": report.grants,
        "aborts": report.aborts,
        "regime_switches": report.regime_switches,
        "clients": report.clients,
        "phases": report.phases,
        "wall_s": round(report.wall_s, 4),
        "decisions_per_sec": round(report.decisions_per_sec, 1),
        "p50_us": report.p50_us,
        "p99_us": report.p99_us,
        "service_p50_us": report.service_p50_us,
        "service_p99_us": report.service_p99_us,
        "grid_builds": report.grid_builds,
        "decision_log_sha256": report.decision_log_sha256(),
    }
