"""Private L1 cache: set-associative tags, MSI states, transactional bits.

Tag-only: line *values* live in the machine's central memory (plus
per-transaction write buffers); see the package docstring for why this
is coherent.  The cache tracks what matters to the protocol — presence,
M/S state, LRU, and the transactional read/write bits of Algorithm 1.

Evicting a transactional line aborts the owning transaction (a
*capacity abort*), exactly as Algorithm 1 line 4 prescribes.

The lines that carry a transactional bit are also indexed in marking
order, so commit and abort touch only the transaction's own lines
instead of scanning every set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter

from repro.errors import ProtocolError
from repro.htm.params import MachineParams

__all__ = ["LineState", "CacheLine", "L1Cache"]


class LineState(enum.Enum):
    """MSI stable states (I is represented by absence from the set)."""

    SHARED = "S"
    MODIFIED = "M"


# Hot code reads the members through module names: an Enum class
# attribute load is never specialized (EnumType defines __getattr__).
_SHARED = LineState.SHARED
_MODIFIED = LineState.MODIFIED


@dataclass(slots=True)
class CacheLine:
    """One resident line's bookkeeping."""

    line: int
    state: LineState
    tx_read: bool = False
    tx_write: bool = False
    lru: int = 0

    @property
    def transactional(self) -> bool:
        return self.tx_read or self.tx_write


_lru = attrgetter("lru")


class L1Cache:
    """Set-associative L1 with LRU replacement.

    The cache never talks to the network itself; the HTM controller
    drives all state changes and is responsible for protocol legality —
    the methods here raise :class:`ProtocolError` on illegal transitions
    so controller bugs surface immediately instead of corrupting runs.
    """

    def __init__(self, params: MachineParams) -> None:
        self.params = params
        self._n_sets = params.l1_sets
        self._assoc = params.l1_assoc
        self._sets: list[dict[int, CacheLine]] = [
            {} for _ in range(params.l1_sets)
        ]
        # line -> entry for every resident line with a tx bit set
        # (hit/install add, evict removes, commit/abort empty it)
        self._tx: dict[int, CacheLine] = {}
        self._tick = 0
        # Ways temporarily unavailable to new fills (fault injection:
        # SMT-sibling / way-partitioning pressure).  Reduces the
        # *effective* associativity victim selection works with; lines
        # already resident above the shrunk limit stay resident until
        # a fill needs their set, so shrinking mid-run is safe.
        self.reserved_ways = 0

    # -- lookup -----------------------------------------------------------
    def lookup(self, line: int) -> CacheLine | None:
        """Find a resident line (does not touch LRU)."""
        return self._sets[line % self._n_sets].get(line)

    def hit(
        self, line: int, exclusive: bool, tx: bool, write: bool
    ) -> CacheLine | None:
        """An access that completes locally: make ``line`` MRU and, for
        ``tx``, set its write (``write``) or read bit.  None, touching
        nothing, when the line is absent or ``exclusive`` needs M and it
        is held in S."""
        entry = self._sets[line % self._n_sets].get(line)
        if entry is None or (
            exclusive and entry.state is not _MODIFIED
        ):
            return None
        self._tick += 1
        entry.lru = self._tick
        if tx:
            if write:
                entry.tx_write = True
            else:
                entry.tx_read = True
            self._tx[line] = entry
        return entry

    # -- fills and evictions ------------------------------------------------
    def victim_for(self, line: int, protect_tx: bool) -> CacheLine | None:
        """The line that must be evicted to make room for ``line`` (None
        if the line is resident or its set has a free way): the
        least-recently-used way, or with ``protect_tx`` the LRU
        non-transactional way unless every way is transactional."""
        bucket = self._sets[line % self._n_sets]
        if line in bucket or len(bucket) < max(
            1, self._assoc - self.reserved_ways
        ):
            return None
        victim = min(bucket.values(), key=_lru)
        if protect_tx and victim.transactional:
            spare = [e for e in bucket.values() if not e.transactional]
            if spare:
                return min(spare, key=_lru)
        return victim

    def install(
        self, line: int, state: LineState, tx: bool, write: bool
    ) -> CacheLine:
        """Insert (or upgrade) a line as MRU and, for ``tx``, set its
        write (``write``) or read bit; the caller must have evicted
        first.  Under lazy validation a tx-write bit may sit on an S
        line (the store is buffered; exclusivity comes at commit)."""
        bucket = self._sets[line % self._n_sets]
        entry = bucket.get(line)
        if entry is not None:
            entry.state = state
        else:
            if len(bucket) >= self._assoc:
                raise ProtocolError(
                    f"fill of line {line} into a full set (evict first)"
                )
            entry = CacheLine(line, state)
            bucket[line] = entry
        self._tick += 1
        entry.lru = self._tick
        if tx:
            if write:
                entry.tx_write = True
            else:
                entry.tx_read = True
            self._tx[line] = entry
        return entry

    def evict(self, line: int) -> CacheLine:
        """Remove a resident line and return its final bookkeeping."""
        entry = self._sets[line % self._n_sets].pop(line, None)
        if entry is None:
            raise ProtocolError(f"evicting non-resident line {line}")
        self._tx.pop(line, None)
        return entry

    # -- probes -------------------------------------------------------------
    # A probe is answered on the entry its handler already looked up, so
    # neither method looks the line up again.
    def downgrade(self, entry: CacheLine) -> None:
        """M -> S in response to a GETS probe."""
        if entry.state is not _MODIFIED:
            raise ProtocolError(f"downgrade of line {entry.line} not in M")
        entry.state = _SHARED

    def invalidate(self, entry: CacheLine) -> None:
        """Drop a resident line in response to a GETX probe."""
        line = entry.line
        if self._sets[line % self._n_sets].pop(line, None) is not entry:
            raise ProtocolError(f"invalidating non-resident line {line}")
        self._tx.pop(line, None)

    # -- transactional bits ---------------------------------------------------
    def clear_tx_bits(self) -> list[int]:
        """Commit: clear every transactional bit; returns affected lines
        (in marking order)."""
        for entry in self._tx.values():
            entry.tx_read = entry.tx_write = False
        cleared = list(self._tx)
        self._tx.clear()
        return cleared

    def invalidate_tx_lines(self) -> list[int]:
        """Abort: drop every transactional line; returns dropped lines
        (in marking order)."""
        sets, n_sets = self._sets, self._n_sets
        dropped = list(self._tx)
        for line in dropped:
            del sets[line % n_sets][line]
        self._tx.clear()
        return dropped

    def transactional_lines(self) -> list[int]:
        """Lines carrying a tx bit, in marking order."""
        return list(self._tx)

    def resident_lines(self) -> list[int]:
        return [e.line for bucket in self._sets for e in bucket.values()]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets)
