"""One retry/backoff policy shared by every execution path.

A :class:`RetryPolicy` is the single picklable object threaded through
:func:`repro.experiments.run_experiment` and the
:class:`~repro.parallel.supervisor.SupervisedPool`, and the only way to
ask either for retries:

* ``retries`` / ``backoff_base`` / ``backoff_factor`` — in-process
  re-runs after a transient :class:`~repro.errors.SimulationError`
  (exponential backoff; timeouts are never retried).
* ``max_task_reexecutions`` — how often a task whose *worker process*
  died (SIGKILL, OOM, chaos) is handed to a fresh worker before it is
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
    """Retry, re-execution, and restart budgets for one run (picklable)."""

    #: extra in-process attempts after a transient ``SimulationError``.
    retries: int = 0
    #: first backoff sleep in seconds; doubles (``backoff_factor``) per attempt.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    #: re-executions of a task whose worker process died mid-flight.
    max_task_reexecutions: int = 2
    #: pool-wide budget of replacement worker processes.
    max_worker_restarts: int = 8
    #: first sleep before restarting a dead worker; doubles per restart.
    restart_backoff: float = 0.02

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise InvalidParameterError(
                f"retries must be >= 0, got {self.retries}"
            )
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
    def attempt_backoff(self, attempt: int) -> float:
        """Sleep before in-process retry number ``attempt`` (0-based)."""
        return self.backoff_base * self.backoff_factor**attempt

    def reexecution_backoff(self, reexecution: int) -> float:
        """Sleep before re-dispatching a crashed task (0-based count)."""
        return self.backoff_base * self.backoff_factor**reexecution

    def restart_delay(self, restart: int) -> float:
        """Sleep before spawning replacement worker number ``restart``."""
        return self.restart_backoff * self.backoff_factor**restart


#: The defaults every path uses when no explicit policy is given.
DEFAULT_RETRY_POLICY = RetryPolicy()
