"""One re-execution/backoff policy shared by every execution path.

A :class:`RetryPolicy` is the single picklable object threaded through
the :class:`~repro.parallel.supervisor.SupervisedPool`.  Only a dead
worker process is retried: every experiment is a pure function of its
arguments and seed, so re-running one in-process after an exception
would recompute the same exception.

* ``max_task_reexecutions`` / ``backoff_base`` / ``backoff_factor`` —
  how often a task whose *worker process* died (SIGKILL, OOM, chaos) is
  handed to a fresh worker, with exponential backoff, before it is
  recorded as failed.
* ``max_worker_restarts`` / ``restart_backoff`` — the pool-wide budget
  of replacement workers; once exhausted the supervisor degrades to
  serial in-parent execution instead of spawning forever.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidParameterError

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """Re-execution and restart budgets for one run (picklable)."""

    #: first re-execution sleep in seconds; doubles (``backoff_factor``)
    #: per re-execution.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    #: re-executions of a task whose worker process died mid-flight.
    max_task_reexecutions: int = 2
    #: pool-wide budget of replacement worker processes.
    max_worker_restarts: int = 8
    #: first sleep before restarting a dead worker; doubles per restart.
    restart_backoff: float = 0.02

    def __post_init__(self) -> None:
        if self.max_task_reexecutions < 0:
            raise InvalidParameterError(
                "max_task_reexecutions must be >= 0, got "
                f"{self.max_task_reexecutions}"
            )
        if self.max_worker_restarts < 0:
            raise InvalidParameterError(
                f"max_worker_restarts must be >= 0, got "
                f"{self.max_worker_restarts}"
            )
        if self.backoff_base < 0 or self.restart_backoff < 0:
            raise InvalidParameterError("backoff times must be >= 0")
        if self.backoff_factor < 1.0:
            raise InvalidParameterError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    # ------------------------------------------------------------------
    def reexecution_backoff(self, reexecution: int) -> float:
        """Sleep before re-dispatching a crashed task (0-based count)."""
        return self.backoff_base * self.backoff_factor**reexecution

    def restart_delay(self, restart: int) -> float:
        """Sleep before spawning replacement worker number ``restart``."""
        return self.restart_backoff * self.backoff_factor**restart


#: The defaults every path uses when no explicit policy is given.
DEFAULT_RETRY_POLICY = RetryPolicy()
