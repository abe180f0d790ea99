"""The micro-ISA: what workload programs yield to the core.

Workload operations are Python generators; each ``yield`` hands the
core one of the request objects below, the core performs it through the
memory system, and resumes the generator with the result (the read
value, or the ``(success, old_value)`` pair for CAS).  This mirrors the
paper's Algorithm 1 abstraction — a transaction is a sequence of reads,
writes, and local computation between ``TxBegin``/``TxEnd`` — while
letting data-dependent access patterns (pointer chasing in the stack
and queue) be expressed naturally.

The transaction boundary is *not* an instruction: the core brackets the
whole body generator, so aborts can restart it from scratch.

The records are slotted rather than frozen: a workload builds most of
them per instruction, and a frozen dataclass pays
``object.__setattr__`` for every field.  Nothing mutates them after
construction, so a record whose operands are fixed at setup (a
fallback-lock load, say) is built once there and yielded by every
attempt on every core.  The records that validate their fields do it
in their own ``__init__`` (the dataclass still provides eq and repr),
one call per record instead of a generated ``__init__`` plus
``__post_init__``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidParameterError

__all__ = ["Read", "Write", "Compute", "CAS", "Fence"]


@dataclass(slots=True, init=False)
class Read:
    """Load one word.  Transactional inside a transaction body."""

    addr: int

    def __init__(self, addr: int) -> None:
        if addr < 0:
            raise InvalidParameterError(f"negative address {addr}")
        self.addr = addr


@dataclass(slots=True, init=False)
class Write:
    """Store one word.  Buffered until commit inside a transaction."""

    addr: int
    value: int

    def __init__(self, addr: int, value: int) -> None:
        if addr < 0:
            raise InvalidParameterError(f"negative address {addr}")
        self.addr = addr
        self.value = value


@dataclass(slots=True, init=False)
class Compute:
    """Spin the ALU for ``cycles`` cycles (models the transaction body's
    local work; Figure 3's bimodal app varies exactly this)."""

    cycles: int

    def __init__(self, cycles: int) -> None:
        if cycles < 1:
            raise InvalidParameterError(
                f"compute cycles must be >= 1, got {cycles}"
            )
        self.cycles = cycles


@dataclass(slots=True, init=False)
class CAS:
    """Atomic compare-and-swap (lock-free fallback paths only).

    Resolves atomically at the moment the directory grants exclusive
    ownership; returns ``(success, old_value)``.  Illegal inside a
    transaction body (HTM already gives atomicity there).
    """

    addr: int
    expected: int
    new: int

    def __init__(self, addr: int, expected: int, new: int) -> None:
        if addr < 0:
            raise InvalidParameterError(f"negative address {addr}")
        self.addr = addr
        self.expected = expected
        self.new = new


@dataclass(slots=True)
class Fence:
    """One-cycle ordering no-op (keeps fallback loops honest about not
    being free)."""


@dataclass(slots=True)
class AbortTx:
    """Explicitly abort the running transaction and retry the operation.

    Used for lock subscription: the HTM fast path reads the fallback
    lock first and self-aborts while it is held, the standard
    lock-elision discipline (running a transaction concurrently with a
    fallback lock holder would break atomicity).
    """


@dataclass(slots=True)
class AcquireX:
    """Internal commit-phase instruction: acquire exclusive ownership of
    the line containing ``addr`` (lazy validation acquires the write set
    at commit).  Emitted by the core's commit sequence, not by
    workloads."""

    addr: int
