"""Sorted linked-list set workload (extension).

Transactions traverse a sorted singly-linked list (head sentinel) to
insert, remove, or look up a key.  Unlike the stack/queue, the read set
*grows with the traversal*, so conflicts arrive on interior nodes, and
chains of size k > 2 form naturally when several traversals pile up
behind one writer — the regime where Theorem 6's k-aware policies
differ from the k = 2 forms.

Verification replays the committed log per key: successful inserts and
removes of one key must strictly alternate (insert first), and the
final membership reconstructed from the log must equal the actual final
chain (which must also be sorted and duplicate-free).

Removed nodes are unlinked but never recycled (see NodePool), so the
fallback traversals are ABA-safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.htm.isa import CAS, AbortTx, Fence, Read, Write
from repro.workloads.base import NodePool, Operation, OpContext, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.htm.machine import Machine
    from repro.htm.params import MachineParams

__all__ = ["ListSetWorkload", "InsertOp", "RemoveOp", "ContainsOp"]

_VAL = 0
_NXT = 1


def _traverse(workload: "ListSetWorkload", key: int) -> Generator:
    """Walk to the first node with value >= key.

    Returns ``(prev_addr, cur_addr, cur_val)`` where ``prev_addr`` is
    the predecessor node (possibly the head sentinel) and ``cur_addr``
    is 0 at the end of the list.
    """
    prev = workload.head_addr
    cur = yield Read(prev + _NXT)
    while cur != 0:
        val = yield Read(cur + _VAL)
        if val >= key:
            return prev, cur, val
        prev = cur
        cur = yield Read(cur + _NXT)
    return prev, 0, None


class _LockMixin:
    def _acquire_lock(self, ctx: OpContext) -> Generator:
        w = self.workload  # type: ignore[attr-defined]
        while True:
            held = yield w.lock_read
            if held != 0:
                yield Fence()
                continue
            ok, _ = yield CAS(w.lock_addr, 0, ctx.core_id + 1)
            if ok:
                return
            yield Fence()

    def _subscribe(self) -> Generator:
        w = self.workload  # type: ignore[attr-defined]
        lock = yield w.lock_read
        if lock != 0:
            yield AbortTx()


class InsertOp(_LockMixin, Operation):
    name = "insert"

    def __init__(self, workload: "ListSetWorkload", node: int, key: int) -> None:
        self.workload = workload
        self.node = node
        self.key = key

    def _logic(self) -> Generator:
        prev, cur, val = yield from _traverse(self.workload, self.key)
        if cur != 0 and val == self.key:
            return False  # already present
        yield Write(self.node + _VAL, self.key)
        yield Write(self.node + _NXT, cur)
        yield Write(prev + _NXT, self.node)
        return True

    def body(self, ctx: OpContext) -> Generator:
        yield from self._subscribe()
        result = yield from self._logic()
        return result

    def has_fallback(self) -> bool:
        return True

    def fallback(self, ctx: OpContext) -> Generator:
        yield from self._acquire_lock(ctx)
        result = yield from self._logic()
        yield Write(self.workload.lock_addr, 0)
        return result

    def on_commit(self, machine: "Machine", core_id: int, result: object) -> None:
        self.workload.log.append(("insert", self.key, bool(result)))


class RemoveOp(_LockMixin, Operation):
    name = "remove"

    def __init__(self, workload: "ListSetWorkload", key: int) -> None:
        self.workload = workload
        self.key = key

    def _logic(self) -> Generator:
        prev, cur, val = yield from _traverse(self.workload, self.key)
        if cur == 0 or val != self.key:
            return False  # absent
        nxt = yield Read(cur + _NXT)
        yield Write(prev + _NXT, nxt)
        return True

    def body(self, ctx: OpContext) -> Generator:
        yield from self._subscribe()
        result = yield from self._logic()
        return result

    def has_fallback(self) -> bool:
        return True

    def fallback(self, ctx: OpContext) -> Generator:
        yield from self._acquire_lock(ctx)
        result = yield from self._logic()
        yield Write(self.workload.lock_addr, 0)
        return result

    def on_commit(self, machine: "Machine", core_id: int, result: object) -> None:
        self.workload.log.append(("remove", self.key, bool(result)))


class ContainsOp(_LockMixin, Operation):
    name = "contains"

    def __init__(self, workload: "ListSetWorkload", key: int) -> None:
        self.workload = workload
        self.key = key

    def _logic(self) -> Generator:
        _prev, cur, val = yield from _traverse(self.workload, self.key)
        return cur != 0 and val == self.key

    def body(self, ctx: OpContext) -> Generator:
        yield from self._subscribe()
        result = yield from self._logic()
        return result

    def has_fallback(self) -> bool:
        return True

    def fallback(self, ctx: OpContext) -> Generator:
        yield from self._acquire_lock(ctx)
        result = yield from self._logic()
        yield Write(self.workload.lock_addr, 0)
        return result

    def on_commit(self, machine: "Machine", core_id: int, result: object) -> None:
        self.workload.lookups += 1


class ListSetWorkload(Workload):
    """Insert/remove/contains over a bounded key range.

    Parameters
    ----------
    key_range:
        Keys are drawn uniformly from ``[0, key_range)``; smaller ranges
        mean hotter lists.
    p_insert / p_remove:
        Operation mix (the remainder are lookups).
    prefill:
        Keys pre-inserted at setup (every other key, up to this many).
    """

    name = "listset"

    def __init__(
        self,
        *,
        key_range: int = 64,
        p_insert: float = 0.4,
        p_remove: float = 0.4,
        prefill: int = 16,
        pool_capacity: int = 1 << 14,
    ) -> None:
        if key_range < 2:
            raise ValueError("key_range must be >= 2")
        if p_insert < 0 or p_remove < 0 or p_insert + p_remove > 1.0:
            raise ValueError("bad operation mix")
        self.key_range = key_range
        self.p_insert = p_insert
        self.p_remove = p_remove
        self.prefill = prefill
        self.pool_capacity = pool_capacity
        self.head_addr = -1
        self.lock_addr = -1
        self.lock_read: Read | None = None
        self.pool: NodePool | None = None
        self.log: list[tuple[str, int, bool]] = []
        self.lookups = 0

    def setup(self, machine: "Machine") -> None:
        n = machine.params.n_cores
        self.head_addr = machine.alloc(2)  # sentinel: [unused, next]
        self.lock_addr = machine.alloc(1)
        # the lock load every attempt yields, built once (records are
        # never mutated, so attempts and cores share it)
        self.lock_read = Read(self.lock_addr)
        self.pool = NodePool(machine, n, self.pool_capacity, 2)
        self.log = []
        self.lookups = 0
        machine.poke(self.head_addr + _NXT, 0)
        machine.poke(self.lock_addr, 0)
        # prefill with every other key, keeping the chain sorted
        tail = self.head_addr
        count = 0
        for key in range(0, self.key_range, 2):
            if count >= self.prefill:
                break
            node = self.pool.take(0)
            machine.poke(node + _VAL, key)
            machine.poke(node + _NXT, 0)
            machine.poke(tail + _NXT, node)
            self.log.append(("insert", key, True))
            tail = node
            count += 1

    def next_op(self, core_id: int, rng: np.random.Generator) -> Operation:
        assert self.pool is not None
        key = int(rng.integers(0, self.key_range))
        roll = rng.random()
        if roll < self.p_insert:
            return InsertOp(self, self.pool.take(core_id), key)
        if roll < self.p_insert + self.p_remove:
            return RemoveOp(self, key)
        return ContainsOp(self, key)

    def tuned_delay_cycles(self, params: "MachineParams") -> int:
        remote = 2 * params.hop + params.dir_lookup + params.l1_hit
        # expected traversal length ~ half the live set
        return (self.prefill // 2 + 2) * remote + params.commit_cycles

    def verify(self, machine: "Machine") -> None:
        # per-key alternation of successful ops
        state: dict[int, bool] = {}
        for kind, key, ok in self.log:
            if not ok:
                continue
            present = state.get(key, False)
            if kind == "insert":
                self._require(
                    not present, f"successful insert of present key {key}"
                )
                state[key] = True
            else:
                self._require(
                    present, f"successful remove of absent key {key}"
                )
                state[key] = False
        expected = {key for key, present in state.items() if present}
        # final chain: sorted, duplicate-free, matching the log replay
        chain: list[int] = []
        addr = machine.peek(self.head_addr + _NXT)
        hops = 0
        while addr != 0:
            chain.append(machine.peek(addr + _VAL))
            addr = machine.peek(addr + _NXT)
            hops += 1
            self._require(hops <= len(self.log) + 2, "cycle in list chain")
        self._require(chain == sorted(chain), f"chain not sorted: {chain}")
        self._require(
            len(chain) == len(set(chain)), f"duplicate keys in chain: {chain}"
        )
        self._require(
            set(chain) == expected,
            f"final membership mismatch: chain {sorted(set(chain))} vs "
            f"log replay {sorted(expected)}",
        )
