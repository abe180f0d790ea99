"""Bank-transfer workload (extension): the classic TM benchmark.

``n_accounts`` accounts, one per cache line.  Most operations transfer
a random amount between two random accounts inside a transaction; a
configurable fraction are **audits** — long read-only transactions that
sum every account.  Audits are the interesting stressor: their read set
spans all lines, so any concurrent committer conflicts them, and the
grace-period policies decide whether the nearly-finished audit survives.

Verification is strong:

* conservation — the final account total equals the initial total;
* snapshot consistency — every committed audit must have observed the
  exact global total (a torn read of a half-applied transfer would show
  up as a different sum, because transfers preserve the total).

The fallback path takes a global test-and-CAS lock; the HTM fast path
subscribes to it (see txapp).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.htm.isa import CAS, AbortTx, Compute, Fence, Read, Write
from repro.workloads.base import Operation, OpContext, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.htm.machine import Machine
    from repro.htm.params import MachineParams

__all__ = ["BankWorkload", "TransferOp", "AuditOp"]


class TransferOp(Operation):
    """Move ``amount`` from account ``src`` to account ``dst``."""

    name = "transfer"

    def __init__(
        self, workload: "BankWorkload", src: int, dst: int, amount: int
    ) -> None:
        self.workload = workload
        self.src = src
        self.dst = dst
        self.amount = amount

    def _logic(self, locked: bool) -> Generator:
        w = self.workload
        src_bal = yield Read(w.account_addr[self.src])
        if w.work_cycles:
            yield Compute(w.work_cycles)
        dst_bal = yield Read(w.account_addr[self.dst])
        yield Write(w.account_addr[self.src], src_bal - self.amount)
        yield Write(w.account_addr[self.dst], dst_bal + self.amount)
        return self.amount

    def body(self, ctx: OpContext) -> Generator:
        w = self.workload
        lock = yield w.lock_read
        if lock != 0:
            yield AbortTx()
        result = yield from self._logic(locked=False)
        return result

    def has_fallback(self) -> bool:
        return True

    def fallback(self, ctx: OpContext) -> Generator:
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
        result = yield from self._logic(locked=True)
        yield Write(w.lock_addr, 0)
        return result

    def on_commit(self, machine: "Machine", core_id: int, result: object) -> None:
        self.workload.transfers_committed += 1


class AuditOp(Operation):
    """Sum every account inside one transaction (read-only)."""

    name = "audit"

    def __init__(self, workload: "BankWorkload") -> None:
        self.workload = workload

    def _logic(self) -> Generator:
        total = 0
        for addr in self.workload.account_addr:
            total += yield Read(addr)
        return total

    def body(self, ctx: OpContext) -> Generator:
        w = self.workload
        lock = yield w.lock_read
        if lock != 0:
            yield AbortTx()
        total = yield from self._logic()
        return total

    def has_fallback(self) -> bool:
        return True

    def fallback(self, ctx: OpContext) -> Generator:
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
        total = yield from self._logic()
        yield Write(w.lock_addr, 0)
        return total

    def on_commit(self, machine: "Machine", core_id: int, result: object) -> None:
        self.workload.audit_sums.append(int(result))  # type: ignore[arg-type]


class BankWorkload(Workload):
    """Random transfers with occasional full audits.

    Parameters
    ----------
    n_accounts:
        Account count (each on its own line).
    initial_balance:
        Starting balance per account.
    p_audit:
        Probability an operation is an audit.
    work_cycles:
        Body computation inside each transfer.
    """

    name = "bank"

    def __init__(
        self,
        *,
        n_accounts: int = 32,
        initial_balance: int = 1000,
        p_audit: float = 0.05,
        work_cycles: int = 20,
    ) -> None:
        if n_accounts < 2:
            raise ValueError("need >= 2 accounts")
        if not 0.0 <= p_audit <= 1.0:
            raise ValueError("p_audit must be in [0, 1]")
        self.n_accounts = n_accounts
        self.initial_balance = initial_balance
        self.p_audit = p_audit
        self.work_cycles = work_cycles
        self.account_addr: list[int] = []
        self.lock_addr = -1
        self.lock_read: Read | None = None
        self.transfers_committed = 0
        self.audit_sums: list[int] = []

    def setup(self, machine: "Machine") -> None:
        self.account_addr = [machine.alloc(1) for _ in range(self.n_accounts)]
        self.lock_addr = machine.alloc(1)
        # the lock load every attempt yields, built once (records are
        # never mutated, so attempts and cores share it)
        self.lock_read = Read(self.lock_addr)
        self.transfers_committed = 0
        self.audit_sums = []
        for addr in self.account_addr:
            machine.poke(addr, self.initial_balance)
        machine.poke(self.lock_addr, 0)

    @property
    def expected_total(self) -> int:
        return self.n_accounts * self.initial_balance

    def next_op(self, core_id: int, rng: np.random.Generator) -> Operation:
        if rng.random() < self.p_audit:
            return AuditOp(self)
        src = int(rng.integers(0, self.n_accounts))
        dst = int(rng.integers(0, self.n_accounts - 1))
        if dst >= src:
            dst += 1
        amount = int(rng.integers(1, 100))
        return TransferOp(self, src, dst, amount)

    def tuned_delay_cycles(self, params: "MachineParams") -> int:
        remote = 2 * params.hop + params.dir_lookup + params.l1_hit
        return self.work_cycles + 2 * remote + params.commit_cycles

    def verify(self, machine: "Machine") -> None:
        total = sum(machine.peek(addr) for addr in self.account_addr)
        self._require(
            total == self.expected_total,
            f"money not conserved: {total} != {self.expected_total}",
        )
        for i, observed in enumerate(self.audit_sums):
            self._require(
                observed == self.expected_total,
                f"audit {i} observed a torn total {observed} != "
                f"{self.expected_total} (isolation violation)",
            )
