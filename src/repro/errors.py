"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "RegimeError",
    "SimulationError",
    "ProtocolError",
    "WorkloadError",
    "ExperimentError",
    "FaultInjectionError",
    "ExperimentTimeoutError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class InvalidParameterError(ReproError, ValueError):
    """A model, policy, or simulation parameter is out of its valid domain.

    Examples: non-positive abort cost ``B``, chain size ``k < 2``, a
    negative mean, or a delay outside the policy support.
    """


class RegimeError(ReproError, ValueError):
    """A closed-form policy was requested outside its validity regime.

    The mean-constrained policies of Theorems 2, 3, 5 and 6 are optimal
    only when ``mu / B`` lies below a regime threshold.  The factory
    functions switch regimes automatically; constructing a constrained
    policy *directly* outside its regime raises this error.
    """


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulation reached an inconsistent state."""


class ProtocolError(SimulationError):
    """The cache-coherence / HTM protocol state machine was violated.

    Raised by the directory and cache controllers on illegal transitions,
    e.g. two modified copies of the same line, a sharer missing from the
    directory's sharer set, or a commit of an aborted transaction.
    """


class WorkloadError(ReproError, RuntimeError):
    """A workload produced an inconsistent logical state.

    Raised e.g. when a pop observes a value that was never pushed, which
    would indicate a broken atomicity guarantee in the simulated HTM.
    """


class ExperimentError(ReproError, RuntimeError):
    """An experiment runner was misconfigured or failed to produce data."""


class FaultInjectionError(ReproError, ValueError):
    """A fault-injection plan is invalid.

    Examples: a probability outside ``[0, 1]``, a negative hazard rate
    or stall length, or shrinking away more cache ways than exist.
    """


class ExperimentTimeoutError(ExperimentError):
    """An experiment exceeded its wall-clock budget and was killed.

    Raised by the runner's watchdog (``run_experiment(timeout=...)``);
    the supervised pool reports a worker it killed past the budget as
    this type too.  Deliberately *not* retried by the runner: a timeout
    is a budget decision, not a transient fault.
    """
