"""The conflict cost model of Section 4.

A *conflict* involves a chain of ``k >= 2`` transactions: one **receiver**
(T1, the transaction currently holding the contended data) and ``k - 1``
transactions waiting on it (the requestor, plus any transactions already
waiting on the requestor).  The online algorithm picks a grace period
``x`` (the *delay*); the adversary controls the receiver's unknown
remaining running time ``D``.

Requestor wins (Section 4.1)
    * ``D <= x``: the receiver commits inside the grace period.  Each of
      the ``k - 1`` waiters was delayed by ``D``; total cost
      ``(k - 1) * D``.
    * ``D >  x``: the receiver is aborted at ``x``.  We pay the abort
      cost ``B``, the ``x`` wasted steps of the receiver, and the ``x``
      delay of each of the ``k - 1`` waiters; total ``k * x + B``.

Requestor aborts (Section 4.2)
    * ``D <= x``: the receiver commits; the ``k - 1`` requestors were
      delayed by ``D``; total ``(k - 1) * D``.
    * ``D >  x``: the ``k - 1`` requestors are aborted at ``x``; total
      ``(k - 1) * (x + B)``.  (For ``k = 2`` this is the classic
      ski-rental cost ``x + B``.)

In both variants the offline optimum with foresight is
``OPT(D) = min((k - 1) * D, B)``; for ``k = 2`` this is the paper's
``min(D, B)`` / ``min(B, (k-1)D)``.  For requestor-aborts chains this
matches the normalization used in the Theorem 3 Lagrangian (its boundary
term divides by ``B``); see DESIGN.md "Known paper typos".

No optimal policy ever delays past ``B / (k - 1)``: beyond that point
even a certain commit costs more than an immediate abort.  All policy
supports therefore live in ``[0, B / (k - 1)]``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["ConflictKind", "ConflictModel"]


class ConflictKind(enum.Enum):
    """Which transaction a conflict resolution aborts.

    ``REQUESTOR_WINS``: the receiver is aborted (the requestor takes
    ownership) — the policy delays *the receiver's own abort*.

    ``REQUESTOR_ABORTS``: the requestor(s) are aborted — the policy
    delays *the requestors' abort* while the receiver runs.
    """

    REQUESTOR_WINS = "requestor_wins"
    REQUESTOR_ABORTS = "requestor_aborts"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ConflictModel:
    """A parametrized instance of the transactional conflict problem.

    Parameters
    ----------
    kind:
        Conflict resolution strategy (:class:`ConflictKind`).
    B:
        Fixed abort cost (> 0).  In practice this is the time the aborted
        transaction has already executed plus a fixed cleanup cost
        (paper, footnote 1).
    k:
        Conflict chain size, ``k >= 2``.  ``k - 1`` transactions wait on
        the receiver.
    """

    kind: ConflictKind
    B: float
    k: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ConflictKind):
            raise InvalidParameterError(
                f"kind must be a ConflictKind, got {self.kind!r}"
            )
        if not (isinstance(self.B, (int, float)) and math.isfinite(self.B)):
            raise InvalidParameterError(f"B must be a finite number, got {self.B!r}")
        if self.B <= 0:
            raise InvalidParameterError(f"abort cost B must be positive, got {self.B}")
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise InvalidParameterError(f"chain size k must be an int, got {self.k!r}")
        if self.k < 2:
            raise InvalidParameterError(f"chain size k must be >= 2, got {self.k}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def waiters(self) -> int:
        """Number of transactions delayed while the receiver runs."""
        return self.k - 1

    @property
    def delay_cap(self) -> float:
        """``B / (k - 1)`` — the largest delay any optimal policy uses."""
        return self.B / (self.k - 1)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def cost(self, delay: float, remaining: float) -> float:
        """Conflict cost when the policy delays by ``delay`` and the
        receiver needed ``remaining`` more steps to commit.

        Follows Section 4 exactly; at the knife edge ``remaining ==
        delay`` the receiver *commits* in the requestor-wins convention
        of Section 4.1 ("If D <= x, then transaction T1 commits at or
        before x").  Note the requestor-aborts reduction in Section 4.2
        adopts the opposite tie-break (``x = D`` aborts) to align day
        indices with ski rental; the tie is a measure-zero event for
        every continuous policy, and we use the uniform ``D <= x``
        convention throughout for consistency.
        """
        self._check_cost_args(delay, remaining)
        if remaining <= delay:
            return self.waiters * remaining
        return self.aborted_cost(delay)

    def aborted_cost(self, delay: np.ndarray | float) -> np.ndarray | float:
        """The cost when the receiver has not committed by ``delay``:
        ``k x + B`` (requestor wins) or ``(k-1)(x + B)`` (requestor
        aborts).  Elementwise on an array; unchecked."""
        if self.kind is ConflictKind.REQUESTOR_WINS:
            return self.k * delay + self.B
        return self.waiters * (delay + self.B)

    def cost_vec(
        self, delay: np.ndarray | float, remaining: np.ndarray | float
    ) -> np.ndarray:
        """Vectorized :meth:`cost` over NumPy arrays (broadcasting)."""
        x = np.asarray(delay, dtype=float)
        d = np.asarray(remaining, dtype=float)
        if np.any(x < 0) or np.any(d < 0):
            raise InvalidParameterError("delay and remaining must be >= 0")
        return np.where(d <= x, self.waiters * d, self.aborted_cost(x))

    def opt(self, remaining: float) -> float:
        """Offline optimum with foresight: ``min((k - 1) * D, B)``."""
        if remaining < 0:
            raise InvalidParameterError(f"remaining must be >= 0, got {remaining}")
        return min(self.waiters * remaining, self.B)

    def opt_vec(self, remaining: np.ndarray | float) -> np.ndarray:
        """Vectorized :meth:`opt`."""
        d = np.asarray(remaining, dtype=float)
        if np.any(d < 0):
            raise InvalidParameterError("remaining must be >= 0")
        return np.minimum(self.waiters * d, self.B)

    def ratio(self, delay: float, remaining: float) -> float:
        """Pointwise competitive ratio ``cost / opt`` (``inf`` at D = 0
        with a positive-cost decision, 1.0 at the 0/0 corner)."""
        c = self.cost(delay, remaining)
        o = self.opt(remaining)
        if o == 0.0:
            return 1.0 if c == 0.0 else math.inf
        return c / o

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def with_abort_cost(self, B: float) -> "ConflictModel":
        """A copy of this model with a different abort cost (used by the
        backoff wrapper of Corollary 2)."""
        return ConflictModel(self.kind, B, self.k)

    def with_chain(self, k: int) -> "ConflictModel":
        """A copy of this model with a different chain size."""
        return ConflictModel(self.kind, self.B, k)

    @staticmethod
    def _check_cost_args(delay: float, remaining: float) -> None:
        if not math.isfinite(delay) or delay < 0:
            raise InvalidParameterError(
                f"delay must be finite and >= 0, got {delay}"
            )
        if not math.isfinite(remaining) or remaining < 0:
            raise InvalidParameterError(
                f"remaining must be finite and >= 0, got {remaining}"
            )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.kind.value} conflict, chain k={self.k}, abort cost "
            f"B={self.B:g} (delay cap {self.delay_cap:g})"
        )
