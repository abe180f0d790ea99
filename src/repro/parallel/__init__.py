"""Parallel execution layer: one supervised pool, result caching.

Two levels of fan-out run on the same :class:`SupervisedPool`
(docs/PERFORMANCE.md):

* **Inter-experiment** — :meth:`SupervisedPool.run` executes whole
  experiments (:class:`ExperimentTask`) in worker processes with
  parent-enforced process-level timeouts, reporting outcomes in
  submission order so the parent stays the single checkpoint writer
  (``python -m repro all --jobs N``).
* **Intra-experiment** — :meth:`SupervisedPool.starmap` maps trial
  shards (``SyntheticHarness.run(n_shards=...)``) and sweep cells
  (``run_fig3(pool=...)``) over workers; per-shard ``SeedSequence``
  streams plus ordered ``Welford.merge_all`` keep results bit-identical
  for a fixed ``(seed, n_shards)`` and invariant to the worker count.

When at most one worker would be busy the pool runs the work in the
parent instead.  Plus :class:`ResultCache`, the content-addressed row
store keyed on ``exp_id + kwargs + seed + quick +`` a source-tree
fingerprint, and the rest of the crash-tolerance layer:
:class:`CheckpointJournal` (append-only fsync'd JSONL with per-record
checksums and torn-tail recovery) and :class:`RetryPolicy` (the one
re-execution/restart budget object every path shares).
"""

from __future__ import annotations

from repro.parallel.cache import (
    ResultCache,
    cache_key,
    scan_cache_dir,
    source_fingerprint,
)
from repro.parallel.journal import (
    CheckpointJournal,
    JournalRecovery,
    atomic_write_text,
    recover,
)
from repro.parallel.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.parallel.supervisor import (
    ExperimentOutcome,
    ExperimentTask,
    SupervisedPool,
    SupervisorStats,
    best_start_method,
)

__all__ = [
    "CheckpointJournal",
    "DEFAULT_RETRY_POLICY",
    "ExperimentOutcome",
    "ExperimentTask",
    "JournalRecovery",
    "ResultCache",
    "RetryPolicy",
    "SupervisedPool",
    "SupervisorStats",
    "atomic_write_text",
    "best_start_method",
    "cache_key",
    "recover",
    "scan_cache_dir",
    "source_fingerprint",
]
