"""In-order core: drives workload operations through the memory system.

Operations are generators over the micro-ISA (:mod:`repro.htm.isa`).
The core brackets each HTM attempt with ``begin_tx``/``commit_tx``,
restarts the operation from scratch on abort (with randomized
exponential backoff — requestor-wins HTM livelocks without it), and
escalates to the operation's lock-free fallback path after
``max_retries`` failed attempts, exactly the structure of the paper's
stack/queue benchmarks ("lock-free designs as slow-path backups").

Stale-event safety: every attempt owns a *token*; compute timers carry
the token, the core records the token of the attempt that issued its
one outstanding memory access, and a resume whose token is no longer
current is dropped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.htm.controller import AbortReason
from repro.htm.isa import CAS, AbortTx, AcquireX, Compute, Fence, Read, Write
from repro.workloads.base import OpContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.htm.controller import CoreMemSystem
    from repro.htm.machine import Machine
    from repro.workloads.base import Operation, Workload

__all__ = ["Core"]

#: The instruction classes, in the order an instance of a derived class
#: is matched against them.
_ISA = (Compute, Read, Write, CAS, AcquireX, AbortTx, Fence)
_ISA_KINDS = frozenset(_ISA)
# an Enum class attribute load is never specialized; read it once
_EXPLICIT = AbortReason.EXPLICIT


class Core:
    """One hardware thread."""

    def __init__(
        self,
        core_id: int,
        machine: "Machine",
        mem: "CoreMemSystem",
        workload: "Workload",
        rng: np.random.Generator,
    ) -> None:
        self.core_id = core_id
        self.machine = machine
        self.sim = machine.sim
        self.params = machine.params
        self.mem = mem
        self.workload = workload
        self.rng = rng
        self.stats = machine.stats.core(core_id)
        # every attempt of every operation sees the same context
        self._ctx = OpContext(core_id=core_id, rng=rng)

        self._op: "Operation | None" = None
        self._gen = None
        self._attempt = 0
        self._in_htm = False
        self._phase = "body"  # "body" -> "commit" (lazy write-set acquire)
        self._body_result: object = None
        self._token = 0
        self._outstanding = False  # a memory access is in flight
        self._issue_token = 0  # the token that issued it
        self._retry_pending = False
        self.idle = False
        # the event handlers scheduled per instruction, bound once
        self._advance_cb = self._advance
        self._mem_done_cb = self._mem_done

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin issuing operations (staggered a few cycles per core so
        the fleet does not start in lockstep)."""
        jitter = int(self.rng.integers(0, 4 * (self.core_id + 1)))
        self.sim.after(jitter, self._next_op, label="core-start")

    def _next_op(self) -> None:
        if self.machine.draining:
            self.idle = True
            return
        self._op = self.workload.next_op(self.core_id, self.rng)
        if self._op is None:
            self.idle = True
            return
        self.idle = False
        self._attempt = 0
        self._start_attempt()

    # ------------------------------------------------------------------
    def _start_attempt(self) -> None:
        assert self._op is not None
        self._token += 1
        use_fallback = (
            self._attempt >= self.params.max_retries
            and self._op.has_fallback()
        )
        self._phase = "body"
        self._body_result = None
        if use_fallback:
            self._in_htm = False
            self._gen = self._op.fallback(self._ctx)
        else:
            self._in_htm = True
            self._gen = self._op.body(self._ctx)
            self.mem.begin_tx(self._on_abort)
        self._advance(self._token, None)

    # ------------------------------------------------------------------
    def _advance(self, token: int, value: object) -> None:
        if token != self._token:
            return  # stale resume from a dead attempt
        assert self._gen is not None
        try:
            instr = self._gen.send(value)
        except StopIteration as stop:
            self._complete(token, stop.value)
            return
        # dispatch on the exact class; an instance of a derived class
        # runs as the first ISA class it is an instance of.  A memory
        # instruction decodes to access operands and falls through to
        # the one issue below; the others finish here.
        kind = type(instr)
        if kind not in _ISA_KINDS:
            kind = self._isa_kind(instr)
        write = acquire = False
        store = cas = None
        if kind is Read:
            addr = instr.addr
        elif kind is Compute:
            self.sim.after(instr.cycles, self._advance_cb, token, None,
                           label="compute")
            return
        elif kind is Write:
            addr, write, store = instr.addr, True, instr.value
        elif kind is AcquireX:
            if not self._in_htm or self._phase != "commit":
                raise SimulationError(
                    f"core {self.core_id}: AcquireX outside commit phase"
                )
            addr, acquire = instr.addr, True
        elif kind is CAS:
            if self._in_htm:
                raise SimulationError(
                    f"core {self.core_id}: CAS inside a transaction"
                )
            addr, cas = instr.addr, (instr.expected, instr.new)
        elif kind is AbortTx:
            if not self._in_htm:
                raise SimulationError(
                    f"core {self.core_id}: AbortTx outside a transaction"
                )
            self.mem.abort_tx(_EXPLICIT)
            return
        else:  # Fence
            self.sim.after(1, self._advance_cb, token, None, label="fence")
            return
        # Issue the access, keeping one request outstanding per core
        # across aborts.  ``_outstanding`` must be set before the access:
        # a capacity abort fires the abort callback synchronously from
        # inside ``access``, and the callback needs to see whether a
        # request slot is held.  With one access in flight per core, the
        # issuing token is core state that :meth:`_mem_done` reads back.
        self._outstanding = True
        self._issue_token = token
        if not self.mem.access(
            addr, write, self._in_htm, self._mem_done_cb, store, cas, acquire
        ):
            # the access died with its transaction before reaching the
            # directory; release the slot and run any deferred retry
            self._outstanding = False
            if self._retry_pending:
                self._retry_pending = False
                self._schedule_retry()

    def _isa_kind(self, instr: object) -> type:
        """The ISA class ``instr`` is an instance of (first match in
        :data:`_ISA` order); raises for anything else."""
        for kind in _ISA:
            if isinstance(instr, kind):
                return kind
        raise SimulationError(
            f"core {self.core_id}: unknown instruction {instr!r}"
        )

    def _mem_done(self, value: object) -> None:
        """Memory-access completion: the single outstanding slot drains
        here.  A retry that was deferred because its dead attempt still
        had a request in flight (one request per core at the directory —
        issuing another would double-queue) can now proceed."""
        self._outstanding = False
        token = self._issue_token
        if token == self._token:
            self._advance(token, value)
        elif self._retry_pending:
            self._retry_pending = False
            self._schedule_retry()

    # ------------------------------------------------------------------
    def _complete(self, token: int, result: object) -> None:
        if token != self._token:
            return
        if not self._in_htm:
            self.stats.fallback_ops += 1
            self._op_done(result)
            return
        if self._phase == "body":
            # lazy validation: acquire the write set exclusively before
            # the commit can apply (this is the paper's "commit phase")
            self._body_result = result
            self._phase = "commit"
            self._gen = self._commit_gen()
            self._advance(token, None)
            return
        # commit phase finished: every write-set line is owned
        self.mem.finalize_commit(self._committed)

    def _commit_gen(self):
        """Yield one AcquireX per write-set line still lacking M."""
        while True:
            addr = self.mem.next_commit_addr()
            if addr is None:
                return
            yield AcquireX(addr)

    def _committed(self) -> None:
        # finalize_commit cannot fail: the write set is fully owned and
        # conflicts would have aborted us before this point; nothing
        # starts a new attempt before this callback
        self._op_done(self._body_result)

    def _op_done(self, result: object) -> None:
        assert self._op is not None
        self.stats.ops_completed += 1
        self._op.on_commit(self.machine, self.core_id, result)
        self._op = None
        self._gen = None
        # injected core stalls (OS preemption / SMT interference) land
        # at the operation boundary; 0 without a fault plan
        stall = self.machine.faults.stall_cycles()
        self.sim.after(1 + stall, self._next_op, label="next-op")

    # ------------------------------------------------------------------
    def _on_abort(self, reason: AbortReason) -> None:
        """Called by the mem system whenever the running tx dies."""
        self._token += 1  # kill in-flight resumes
        self._gen = None
        self._attempt += 1
        if self._outstanding:
            # the dead attempt's coherence request is still queued at
            # the directory; retrying now would give this core two
            # outstanding requests — defer until it drains (_mem_done)
            self._retry_pending = True
            return
        self._schedule_retry()

    def _schedule_retry(self) -> None:
        delay = self.params.abort_cycles + self._backoff_cycles()
        self.sim.after(delay, self._retry, self._token, label="retry")

    def _retry(self, token: int) -> None:
        if token != self._token or self._op is None:
            return
        self._start_attempt()

    def _backoff_cycles(self) -> int:
        base = self.params.retry_backoff_base
        if base <= 0:
            return 0
        exp = min(self._attempt, 10)
        raw = min(base * (1 << exp), self.params.retry_backoff_cap)
        return int(raw * (0.5 + self.rng.random()))
