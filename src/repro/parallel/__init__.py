"""Parallel execution layer: one supervised pool, result caching.

Two levels of fan-out run on the same :class:`SupervisedPool`
(docs/PERFORMANCE.md):

* **Inter-experiment** — :meth:`SupervisedPool.run` executes whole
  experiments (:class:`ExperimentTask`) in worker processes with
  parent-enforced process-level timeouts, reporting outcomes in
  submission order (``python -m repro all --jobs N``).
* **Intra-experiment** — :meth:`SupervisedPool.starmap` maps trial
  shards (``SyntheticHarness.run(n_shards=...)``) and sweep cells
  (``run_fig3(pool=...)``) over workers; per-shard ``SeedSequence``
  streams plus ordered ``Welford.merge_all`` keep results bit-identical
  for a fixed ``(seed, n_shards)`` and invariant to the worker count.

When at most one worker would be busy the pool runs the work in the
parent instead.  Plus :class:`ResultCache`, the content-addressed row
store keyed on ``exp_id + kwargs + seed + quick +`` a source-tree
fingerprint, whose entries are committed with :func:`atomic_write_text`
(temp file, ``fsync``, ``os.replace``, directory ``fsync``).  The cache
is also how an interrupted batch finishes: rerun it with the same
``--cache-dir`` and every experiment that completed is a hit.
"""

from __future__ import annotations

from repro.parallel.cache import (
    ResultCache,
    atomic_write_text,
    cache_key,
    scan_cache_dir,
    source_fingerprint,
)
from repro.parallel.supervisor import (
    ExperimentOutcome,
    ExperimentTask,
    SupervisedPool,
    SupervisorStats,
    best_start_method,
)

__all__ = [
    "ExperimentOutcome",
    "ExperimentTask",
    "ResultCache",
    "SupervisedPool",
    "SupervisorStats",
    "atomic_write_text",
    "best_start_method",
    "cache_key",
    "scan_cache_dir",
    "source_fingerprint",
]
