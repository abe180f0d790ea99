"""Conflict schedules — the adversary's move set.

Section 6 grants the adversary the power to put pairs of transactions in
conflict at arbitrary times, subject to three structural assumptions:

(a) a transaction already in a conflict as a requestor cannot become the
    receiver of a new conflict;
(b) a transaction in its grace period cannot be conflicted again as a
    receiver (it may appear as a requestor);
(c) conflicts are acyclic.

These assumptions exist precisely so that *the same conflicts* can be
inflicted on the offline optimum as on the online algorithm — which is
what makes the Corollary 1 comparison well-defined.  We encode a
schedule as a list of :class:`Conflict` records, each binding a receiver
transaction, the receiver's remaining time at the moment of conflict,
and the chain size; :meth:`ConflictSchedule.validate` checks (a)-(c)
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["Transaction", "Conflict", "ConflictSchedule"]


@dataclass(frozen=True)
class Transaction:
    """A logical transaction: thread, sequence index, and commit cost.

    ``rho`` is the paper's commit cost ρ_T — the number of consecutive
    steps the transaction needs in isolation to commit.
    """

    thread: int
    index: int
    rho: float

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise InvalidParameterError(
                f"transaction commit cost must be positive, got {self.rho}"
            )

    @property
    def tid(self) -> tuple[int, int]:
        return (self.thread, self.index)


@dataclass(frozen=True)
class Conflict:
    """One adversarial conflict against a receiver transaction.

    Attributes
    ----------
    receiver:
        The transaction holding the contended data (the one whose fate
        the policy decides).
    remaining:
        The receiver's remaining running time D at conflict time
        (0 < remaining <= receiver.rho).
    k:
        Chain size (the receiver plus ``k - 1`` waiting transactions).
    requestor_thread:
        Thread id of the immediate requestor (used by the timed arena
        and by the cycle check; the ledger arena only needs k).
    """

    receiver: Transaction
    remaining: float
    k: int = 2
    requestor_thread: int = -1

    def __post_init__(self) -> None:
        if not 0.0 < self.remaining <= self.receiver.rho:
            raise InvalidParameterError(
                f"conflict remaining time {self.remaining} outside "
                f"(0, rho={self.receiver.rho}]"
            )
        if self.k < 2:
            raise InvalidParameterError(f"chain size must be >= 2, got {self.k}")

    @property
    def progress(self) -> float:
        """How long the receiver had been running when conflicted."""
        return self.receiver.rho - self.remaining


@dataclass
class ConflictSchedule:
    """A full adversarial strategy S: transactions plus their conflicts."""

    transactions: list[Transaction] = field(default_factory=list)
    conflicts: list[Conflict] = field(default_factory=list)

    def total_rho(self) -> float:
        """Σ_T ρ_T — the conflict-free sum of running times."""
        return float(sum(t.rho for t in self.transactions))

    def validate(self) -> None:
        """Structural checks for assumptions (a)-(c).

        The ledger encoding cannot express a *simultaneous* double-
        conflict on one receiver (each conflict record is resolved
        independently), so (b) reduces to requiring distinct remaining
        times per receiver; (a) and (c) reduce to the requestor thread
        differing from the receiver thread.  These checks catch
        generator bugs, not adversary cleverness.
        """
        tids = {t.tid for t in self.transactions}
        if len(tids) != len(self.transactions):
            raise InvalidParameterError("duplicate transaction ids in schedule")
        seen: dict[tuple[int, int], set[float]] = {}
        for c in self.conflicts:
            if c.receiver.tid not in tids:
                raise InvalidParameterError(
                    f"conflict references unknown transaction {c.receiver.tid}"
                )
            if c.requestor_thread == c.receiver.thread:
                raise InvalidParameterError(
                    f"self-conflict on thread {c.receiver.thread} (violates "
                    f"acyclicity)"
                )
            marks = seen.setdefault(c.receiver.tid, set())
            if c.remaining in marks:
                raise InvalidParameterError(
                    f"receiver {c.receiver.tid} conflicted twice at the same "
                    f"instant (violates assumption (b))"
                )
            marks.add(c.remaining)

    def remaining_times(self) -> np.ndarray:
        return np.asarray([c.remaining for c in self.conflicts], dtype=float)

    def chain_sizes(self) -> np.ndarray:
        return np.asarray([c.k for c in self.conflicts], dtype=int)

    def __len__(self) -> int:
        return len(self.conflicts)
