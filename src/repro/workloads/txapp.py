"""The transactional application (Figure 3, bottom row).

Each operation "jointly acquires and modifies two out of a set of 64
objects in order to commit" (Section 8.2): the transaction reads both
objects, performs its body computation, and writes both back.  Each
object sits on its own cache line.  Two variants:

* **uniform** — every transaction carries the same body work;
* **bimodal** — transactions alternate between short and very long
  bodies, the regime where the paper shows hand-tuning breaks down and
  the randomized policy wins.

The fallback path is a test-and-CAS global lock (the canonical HTM
fallback), so the slow path serializes — escalations are visible as
throughput loss, as in real HTM deployments.

Verification: every committed transaction increments both of its
objects by exactly 1, so the final object values must sum to
``2 * committed_ops`` (plus each object's count of touches) — a strong
atomicity check: a torn transaction (one write applied, not the other)
breaks the ledger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.htm.isa import CAS, AbortTx, Compute, Fence, Read, Write
from repro.workloads.base import Operation, OpContext, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.htm.machine import Machine
    from repro.htm.params import MachineParams

__all__ = ["TxAppWorkload", "AppTxOp"]


class AppTxOp(Operation):
    """Read-modify-write two distinct objects with body work between."""

    name = "apptx"

    def __init__(
        self, workload: "TxAppWorkload", obj_a: int, obj_b: int, work: int
    ) -> None:
        self.workload = workload
        self.obj_a = obj_a
        self.obj_b = obj_b
        self.work = work

    def body(self, ctx: OpContext) -> Generator:
        w = self.workload
        # lock subscription (standard lock elision): the fast path must
        # not run concurrently with a fallback lock holder, so read the
        # lock into the tx read set and self-abort while it is held —
        # the holder's release then conflicts us out if it races.
        lock = yield w.lock_read
        if lock != 0:
            yield AbortTx()
        first, second = w.computes[self.work]
        a_val = yield w.obj_read[self.obj_a]
        yield first
        yield Write(w.obj_addr[self.obj_a], a_val + 1)
        b_val = yield w.obj_read[self.obj_b]
        yield second
        yield Write(w.obj_addr[self.obj_b], b_val + 1)
        return (self.obj_a, self.obj_b)

    def has_fallback(self) -> bool:
        return True

    def fallback(self, ctx: OpContext) -> Generator:
        # global test-and-CAS lock
        w = self.workload
        while True:
            held = yield w.lock_read
            if held != 0:
                yield Fence()
                continue
            ok, _ = yield CAS(w.lock_addr, 0, ctx.core_id + 1)
            if ok:
                break
            yield Fence()
        first, second = w.computes[self.work]
        a_val = yield w.obj_read[self.obj_a]
        yield first
        yield Write(w.obj_addr[self.obj_a], a_val + 1)
        b_val = yield w.obj_read[self.obj_b]
        yield second
        yield Write(w.obj_addr[self.obj_b], b_val + 1)
        yield Write(w.lock_addr, 0)
        return (self.obj_a, self.obj_b)

    def on_commit(self, machine: "Machine", core_id: int, result: object) -> None:
        self.workload.touches[self.obj_a] += 1
        self.workload.touches[self.obj_b] += 1
        self.workload.committed += 1


class TxAppWorkload(Workload):
    """2-of-``n_objects`` read-modify-write transactions.

    Parameters
    ----------
    n_objects:
        Size of the object set (paper: 64).
    work_cycles:
        Body computation per transaction in the uniform variant.
    bimodal:
        When True, operations alternate ``work_cycles`` and
        ``long_factor * work_cycles`` bodies per core (the paper's
        "transactions alternate between short and very long").
    long_factor:
        Length ratio of the long mode.
    """

    name = "txapp"

    def __init__(
        self,
        *,
        n_objects: int = 64,
        work_cycles: int = 200,
        bimodal: bool = False,
        long_factor: int = 20,
    ) -> None:
        if n_objects < 2:
            raise ValueError("need >= 2 objects")
        self.n_objects = n_objects
        self.work_cycles = work_cycles
        self.bimodal = bimodal
        self.long_factor = long_factor
        self.obj_addr: list[int] = []
        self.lock_addr = -1
        self.obj_read: list[Read] = []
        self.lock_read: Read | None = None
        self.computes: dict[int, tuple[Compute, Compute]] = {}
        self.touches = [0] * n_objects
        self.committed = 0
        self._phase: list[int] = []

    def setup(self, machine: "Machine") -> None:
        self.obj_addr = [machine.alloc(1) for _ in range(self.n_objects)]
        self.lock_addr = machine.alloc(1)
        # the loads and body halves every attempt yields, built once
        # (records are never mutated, so attempts and cores share them)
        self.obj_read = [Read(addr) for addr in self.obj_addr]
        self.lock_read = Read(self.lock_addr)
        works = [self.work_cycles]
        if self.bimodal:
            works.append(self.work_cycles * self.long_factor)
        self.computes = {
            work: (Compute(max(1, work // 2)), Compute(max(1, work - work // 2)))
            for work in works
        }
        self.touches = [0] * self.n_objects
        self.committed = 0
        self._phase = [0] * machine.params.n_cores
        for addr in self.obj_addr:
            machine.poke(addr, 0)
        machine.poke(self.lock_addr, 0)

    def next_op(self, core_id: int, rng: np.random.Generator) -> Operation:
        a = int(rng.integers(0, self.n_objects))
        b = int(rng.integers(0, self.n_objects - 1))
        if b >= a:
            b += 1
        work = self.work_cycles
        if self.bimodal:
            self._phase[core_id] ^= 1
            if self._phase[core_id] == 0:
                work = self.work_cycles * self.long_factor
        return AppTxOp(self, a, b, work)

    def mean_work_cycles(self) -> float:
        """Mean transaction body length (what a profiler would report)."""
        if not self.bimodal:
            return float(self.work_cycles)
        return self.work_cycles * (1 + self.long_factor) / 2.0

    def tuned_delay_cycles(self, params: "MachineParams") -> int:
        remote = 2 * params.hop + params.dir_lookup + params.l1_hit
        return int(self.mean_work_cycles()) + 2 * remote + params.commit_cycles

    def verify(self, machine: "Machine") -> None:
        total_incr = 0
        for i, addr in enumerate(self.obj_addr):
            value = machine.peek(addr)
            self._require(
                value == self.touches[i],
                f"object {i}: value {value} != committed touches "
                f"{self.touches[i]} (torn transaction)",
            )
            total_incr += value
        self._require(
            total_incr == 2 * self.committed,
            f"object increments {total_incr} != 2 x {self.committed} commits",
        )
