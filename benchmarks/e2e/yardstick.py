"""Host-speed yardstick: host seconds -> reference seconds.

The reference machine is shared, and for a minute or more at a time it
runs everything up to 2.3 times slower; CPU time slows down with wall time, so
neither clock alone separates the program's cost from the host's
state.  Each run therefore times a fixed piece of pure-Python work
between its repetitions, touching no repository code, and divides every
host time by how much slower that work ran around it than on the idle
reference machine (:data:`REFERENCE_S`).  The work has three parts,
and the slowness is the geometric mean of theirs:

* *churn* — heap pushes and pops of small objects and dict counting,
  like the simulator's event queue (allocator and the core's own
  caches);
* *lookups* — seeded random reads and writes over a table of
  :data:`TABLE_SIZE` objects (about 6 MiB, built once per run), which
  misses the core's private caches (contention for the shared cache
  and memory);
* *arithmetic* — an integer recurrence that touches no memory (the
  core's clock and its sibling thread).

Other tenants slow these by different amounts, and no part alone
follows the program's time as well as the three together do
(README.md, "Host noise").  A change to the program moves
its own time, not the yardstick's, so it still shows in full
(``test_a_program_slowdown_shows_in_full``); a slow spell moves both
and cancels.
"""

from __future__ import annotations

import gc
import heapq
import math
import time

__all__ = ["REFERENCE_S", "Speedometer", "TABLE_SIZE", "yardstick_seconds"]

#: Host seconds of the churn, the lookups and the arithmetic on the
#: idle reference machine (2 vCPUs, Python 3.11.7).
REFERENCE_S = (0.037, 0.025, 0.0155)

#: Operations per part of one sample.
_CHURN_ROUNDS = 30_000
_LOOKUP_ROUNDS = 50_000
_ARITH_ROUNDS = 150_000

#: Objects in the lookup table.
TABLE_SIZE = 40_000

_STRIDE = 7919  # table keys are spread out, as ids and addresses are


class _Item:
    __slots__ = ("key", "slot")

    def __init__(self, key: int, slot: int) -> None:
        self.key = key
        self.slot = slot

    def __lt__(self, other: "_Item") -> bool:
        return self.key < other.key


def make_table() -> dict[int, _Item]:
    return {i * _STRIDE: _Item(i, 0) for i in range(TABLE_SIZE)}


def yardstick_seconds(table: dict[int, _Item]) -> tuple[float, float, float]:
    """Host seconds of the churn, of the lookups over ``table`` and of
    the arithmetic.  The cyclic collector is paused, so the program's
    heap does not change the work."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x, heap, counts = 12345, [], {}
        push, pop = heapq.heappush, heapq.heappop
        t0 = time.perf_counter()
        for i in range(_CHURN_ROUNDS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            push(heap, _Item(x, i & 255))
            if len(heap) > 64:
                slot = pop(heap).slot
                counts[slot] = counts.get(slot, 0) + 1
        t1 = time.perf_counter()
        acc = 0
        for _ in range(_LOOKUP_ROUNDS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            item = table[(x % TABLE_SIZE) * _STRIDE]
            acc += item.key
            item.slot = acc & 0xFFFF
        t2 = time.perf_counter()
        for _ in range(_ARITH_ROUNDS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        return t1 - t0, t2 - t1, time.perf_counter() - t2
    finally:
        if was_enabled:
            gc.enable()


class Speedometer:
    """Yardstick samples taken before a run's first timed piece of work
    and after every one.

    :meth:`sample` returns the host's slowness over the piece of work it
    closes: the mean of the slowness of the samples on either side, each
    the geometric mean of its parts' durations as multiples of
    :data:`REFERENCE_S`.  Divide that work's host seconds by it to get
    reference seconds.  Conditions change within a run, so each piece
    gets its own factor; a spike that hits one sample distorts one
    piece, which the run's medians then discard.  :attr:`slowness` is
    the run's median factor, for times not bracketed by samples.
    """

    def __init__(self) -> None:
        self._table = make_table()
        yardstick_seconds(self._table)  # untimed: lets the interpreter specialise it
        self.samples: list[float] = []

    def sample(self) -> float:
        parts = yardstick_seconds(self._table)
        now = math.prod(p / r for p, r in zip(parts, REFERENCE_S)) ** (1 / 3)
        before = self.samples[-1] if self.samples else now
        self.samples.append(now)
        return (before + now) / 2.0

    @property
    def slowness(self) -> float:
        ordered = sorted(self.samples)
        return ordered[(len(ordered) - 1) // 2]
