"""The conflict-policy decision service (docs/SERVING.md).

The batch experiments evaluate the paper's policies offline; this
package runs them as a *service*: an asyncio server that answers
"grant grace Δ or abort?" per conflict request, with the
policy inputs (B, k, µ) estimated online from the request stream
(:mod:`repro.core.estimators`) and the regime re-dispatched live as
they drift (:class:`repro.htm.conflict_policy.RegimeAdaptiveDelay`).

Three modules:

* :mod:`repro.serve.service` — the wire types
  (:class:`ConflictRequest`, :class:`CommitReport`,
  :class:`Decision`) and :class:`DecisionService`, a seq-ordered
  asyncio server whose decision log is byte-identical at any client
  concurrency.
* :mod:`repro.serve.loadgen` — the deterministic replay/load
  generator: Zipfian key skew, bursty arrivals, and workload phases
  that shift the (µ, k, B) regime mid-stream, over a client-id space
  of millions.
* :mod:`repro.serve.replay` — the in-process harness that drives a
  generated stream through the service with N concurrent submitters
  and reports p50/p99 decision latency, sustained decisions/sec and
  the decision log (``BENCH_serve.json`` via ``python -m repro
  loadgen``).

CLI verbs: ``python -m repro serve`` (one-shot smoke serving) and
``python -m repro loadgen`` (the full replay + bench artifact).
"""

from __future__ import annotations

from repro.serve.loadgen import (
    LoadGenConfig,
    PhaseSpec,
    default_config,
    generate,
    request_trace_line,
)
from repro.serve.replay import ReplayReport, bench_payload, run_replay
from repro.serve.service import (
    CommitReport,
    ConflictRequest,
    Decision,
    DecisionService,
    decision_line,
)

__all__ = [
    "ConflictRequest",
    "CommitReport",
    "Decision",
    "DecisionService",
    "decision_line",
    "PhaseSpec",
    "LoadGenConfig",
    "default_config",
    "generate",
    "request_trace_line",
    "ReplayReport",
    "run_replay",
    "bench_payload",
]
