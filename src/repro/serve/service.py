"""The asyncio decision service: grant grace Δ or abort, per conflict.

Protocol (docs/SERVING.md): clients submit two event kinds over a
shared, monotonically-increasing sequence space —

* :class:`ConflictRequest` — "my transaction (age, chain k) was hit by
  a conflicting probe; how long may I keep delaying it?"  Answered
  with a :class:`Decision`: ``grant`` with a grace period in cycles,
  or ``abort`` (grace 0).
* :class:`CommitReport` — "my transaction committed after D cycles",
  the live µ feed for the online estimators.  Acknowledged, never
  logged.

**Determinism.**  The service serves strictly in ``seq`` order.  The
``submit`` whose event is next in order decides it in the calling
coroutine, then every parked successor; a reorder buffer holds only
early arrivals until their predecessors are decided.  Any number of
concurrent clients therefore produces the *same* decision sequence —
same estimator trajectory, same RNG consumption, same regime switches.
The decision log is byte-identical at any concurrency level, which is
the property the loadgen determinism gate diffs in CI.  Wall-clock
only ever feeds the latency histograms (metrics), never a decision.

Per-decision latency lands in two fixed-edge
:class:`~repro.obs.metrics.Histogram`\\ s: ``decide`` (the policy
computation alone) and ``service`` (submit-to-resolution, including
reorder wait) — p50/p99 come from
:meth:`~repro.obs.metrics.Histogram.quantile`.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from dataclasses import dataclass

from repro.errors import (
    ExperimentTimeoutError,
    InvalidParameterError,
    SimulationError,
)
from repro.htm.conflict_policy import (
    RegimeAdaptiveDelay,
    ConflictContext,
    CyclePolicy,
)
from repro.htm.params import MachineParams
from repro.obs.metrics import Histogram, get_registry
from repro.obs.tracebus import get_bus
from repro.rngutil import stream_for

__all__ = [
    "ConflictRequest",
    "CommitReport",
    "Decision",
    "DecisionService",
    "decision_line",
    "LATENCY_EDGES_US",
]

#: Fixed decision-latency bucket edges (microseconds): 16 log-linear
#: sub-buckets per power of two, 1 µs to 2**17 µs (273 edges), so a
#: quantile read (a bucket's upper edge) is at most 1/16 above its
#: sample.  Fixed edges keep histograms mergeable and run-to-run
#: comparable (docs/OBSERVABILITY.md); the top edge clamps the p99 read.
LATENCY_EDGES_US = tuple(
    (16 + i) * 2.0**e / 16 for e in range(17) for i in range(16)
) + (2.0**17,)


@dataclass(frozen=True)
class ConflictRequest:
    """One "grant or abort?" question from a client.

    ``seq`` is the global submission sequence number (assigned by the
    client/load generator, served in order); ``tx_age`` and
    ``chain_k`` are the receiver transaction's age in cycles and
    waits-for chain size at conflict time — exactly the
    :class:`~repro.htm.conflict_policy.ConflictContext` inputs.
    """

    seq: int
    client_id: int
    key: int
    tx_age: int
    chain_k: int
    phase: int = 0
    arrival_us: float = 0.0
    requestor_age: int | None = None


@dataclass(frozen=True)
class CommitReport:
    """A committed transaction's duration (the µ estimator feed)."""

    seq: int
    client_id: int
    key: int
    duration: float
    phase: int = 0
    arrival_us: float = 0.0


@dataclass(slots=True)
class Decision:
    """The service's answer to one event.

    ``action`` is ``"grant"`` (wait ``grace`` cycles before aborting
    the receiver) or ``"abort"`` (grace 0, abort immediately) for
    conflicts, ``"ack"`` for commit reports.  ``regime`` is the
    adaptive policy's dispatch at decision time (``"-"`` for static
    policies).  Slotted, not frozen (one per event); the requests stay
    frozen because a parked one is held by reference until decided.
    """

    seq: int
    action: str
    grace: int
    regime: str
    policy: str


@functools.lru_cache(maxsize=1024)
def _json_string(value: str) -> str:
    return json.dumps(value)


def decision_line(decision: Decision) -> str:
    """Canonical one-line JSON for a decision (no trailing newline).

    Same canonicalization contract as the trace bus (sorted keys,
    compact separators): two decision logs are equal iff their bytes
    are equal.
    """
    return (
        f'{{"action":{_json_string(decision.action)},'
        f'"grace":{decision.grace},'
        f'"policy":{_json_string(decision.policy)},'
        f'"regime":{_json_string(decision.regime)},'
        f'"seq":{decision.seq}}}'
    )


class DecisionService:
    """Seq-ordered async server around one conflict policy.

    Usage::

        service = DecisionService(seed=3)
        await service.start()
        decision = await service.submit(ConflictRequest(...))
        ...
        await service.stop()

    ``submit`` may be called from any number of client coroutines in
    any interleaving; each client must submit its own events in
    ascending ``seq`` order (the load generator's round-robin sharding
    guarantees this), and every sequence number below the highest
    submitted one must eventually be submitted by someone, or the
    events parked behind the gap wait until :meth:`stop` fails them.
    """

    def __init__(
        self,
        *,
        seed: int | None = None,
        params: MachineParams | None = None,
        policy: CyclePolicy | None = None,
        latency_edges: tuple = LATENCY_EDGES_US,
    ) -> None:
        self.params = params if params is not None else MachineParams()
        self.policy = policy if policy is not None else RegimeAdaptiveDelay()
        self._rng = stream_for(seed, "serve", "decisions")
        #: early arrivals: seq -> (event, future, submit time)
        self._pending: dict[int, tuple[object, asyncio.Future, float]] = {}
        self._next_seq = 0
        self._started = False
        #: canonical decision-log lines, conflict decisions only
        self.decision_log: list[str] = []
        self.decide_latency = Histogram("decide_latency_us", latency_edges)
        self.service_latency = Histogram("service_latency_us", latency_edges)
        self.conflicts = 0
        self.commits = 0
        self.grants = 0
        self.aborts = 0
        self.regime_switches = 0
        self._last_regime = getattr(self.policy, "regime", "-")

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            raise SimulationError("decision service already started")
        self._started = True

    async def stop(self) -> None:
        """Shut down.  Every event whose predecessors all arrived has
        been decided already; events parked behind a sequence gap fail
        with :class:`SimulationError` instead of hanging."""
        if not self._started:
            return
        self._started = False
        if self._pending:
            stuck = sorted(self._pending)
            for seq in stuck:
                _, fut, _ = self._pending.pop(seq)
                if not fut.done():
                    fut.set_exception(
                        SimulationError(
                            f"service stopped at seq {self._next_seq} with "
                            f"a sequence gap; undecided: {stuck[:5]}..."
                        )
                    )

    # -- the request path --------------------------------------------------
    async def submit(self, event) -> Decision:
        """Decide one event; resolves with its :class:`Decision`.

        The event that is next in ``seq`` order is decided here, and so
        is every parked successor it unblocks; an early event parks
        until the submit of its predecessor decides it.  An event whose
        decision raises counts as served, stays out of the decision
        log, and raises in its own submit.
        """
        submitted = time.perf_counter()
        if not self._started:
            raise SimulationError("decision service is not started")
        seq = event.seq
        if seq != self._next_seq:
            if seq < self._next_seq or seq in self._pending:
                raise InvalidParameterError(
                    f"seq {seq} already served or pending"
                )
            fut = asyncio.get_running_loop().create_future()
            self._pending[seq] = (event, fut, submitted)
            return await fut
        decision, error = self._serve(event, submitted)
        if self._pending:
            self._drain()
        if error is not None:
            raise error
        return decision

    def _serve(self, event, submitted: float) -> tuple:
        """Decide the next event in order: ``(decision, None)``, or
        ``(None, error)`` when deciding raised."""
        try:
            outcome = self._decide(event), None
        except ExperimentTimeoutError:
            raise
        except Exception as exc:
            outcome = None, exc
        self.service_latency.observe((time.perf_counter() - submitted) * 1e6)
        self._next_seq += 1
        return outcome

    def _drain(self) -> None:
        """Decide parked events while the next one in order is parked."""
        pending = self._pending
        while (entry := pending.pop(self._next_seq, None)) is not None:
            event, fut, submitted = entry
            decision, error = self._serve(event, submitted)
            if fut.done():  # client may have been cancelled
                continue
            if error is None:
                fut.set_result(decision)
            else:
                fut.set_exception(error)

    # -- deciding ----------------------------------------------------------
    def _decide(self, event) -> Decision:
        t0 = time.perf_counter()
        policy = self.policy
        if isinstance(event, CommitReport):
            observe = getattr(policy, "observe_commit", None)
            if observe is not None:
                observe(event.duration)
            self.commits += 1
            decision = Decision(event.seq, "ack", 0, self._last_regime,
                                policy.name)
        else:
            ctx = ConflictContext(
                tx_age=event.tx_age,
                chain_k=event.chain_k,
                params=self.params,
                requestor_age=event.requestor_age,
            )
            grace = int(policy.decide(ctx, self._rng))
            regime = getattr(policy, "regime", "-")
            if grace > 0:
                self.grants += 1
                action = "grant"
            else:
                self.aborts += 1
                action = "abort"
            self.conflicts += 1
            decision = Decision(event.seq, action, grace, regime, policy.name)
            self.decision_log.append(decision_line(decision))
            if regime != self._last_regime:
                self.regime_switches += 1
                bus = get_bus()
                if bus.enabled:
                    bus.emit(
                        float(event.seq),
                        "regime_switch",
                        old=self._last_regime,
                        new=regime,
                        seq=event.seq,
                    )
                self._last_regime = regime
            registry = get_registry()
            if registry.enabled:
                registry.counter(f"decisions_{action}").inc()
        self.decide_latency.observe((time.perf_counter() - t0) * 1e6)
        bus = get_bus()
        if bus.enabled:
            bus.emit(
                float(event.seq),
                "decision_served",
                seq=event.seq,
                action=decision.action,
                grace=decision.grace,
                regime=decision.regime,
            )
        return decision
