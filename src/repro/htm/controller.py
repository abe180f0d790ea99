"""Per-core memory system: private L1 + the HTM controller.

This is where the paper's mechanism lives.  A coherence probe that
conflicts with the local transaction (it targets a line with a
transactional bit, per Algorithm 1) is **not** answered immediately:
the controller consults its :class:`~repro.htm.conflict_policy.CyclePolicy`
for a grace period and holds the probe.  If the transaction commits
within the grace period the probe is answered on commit (everybody
wins); when the grace timer fires first, the transaction aborts —
requestor wins — and the probe is answered then.

Value semantics: one authoritative word store lives in the
:class:`~repro.htm.machine.Machine`; transactional writes go to a
per-transaction write buffer applied atomically at commit (lazy
versioning).  Coherence (M-state exclusivity plus conflict probes on
transactional bits) guarantees that this simple store is linearizable
for committed transactions — the integration tests check it end to end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import InvalidParameterError, ProtocolError, SimulationError
from repro.htm.cache import L1Cache, LineState
from repro.htm.conflict_policy import ConflictContext, CyclePolicy
from repro.htm.params import MachineParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.htm.machine import Machine

__all__ = ["AbortReason", "CoreMemSystem", "PendingProbe"]

#: Power-of-two bucket edges for the grace-delay histogram.  Fixed at
#: import time so every run (and every parallel worker) buckets
#: identically — a requirement of the snapshot-merge determinism
#: contract (docs/OBSERVABILITY.md).  Zero delays land in underflow.
GRACE_DELAY_EDGES = tuple(float(2**i) for i in range(16))


class AbortReason(enum.Enum):
    """Why a transaction died (stats keys)."""

    CONFLICT_IMMEDIATE = "conflict_immediate"  # policy chose 0 delay
    CONFLICT_TIMEOUT = "conflict_timeout"      # grace period expired
    CAPACITY = "capacity"                      # tx line evicted
    CYCLE = "cycle"                            # waits-for cycle broken
    EXPLICIT = "explicit"                      # workload self-abort
    NACKED = "nacked"                          # requestor-aborts resolution
    SPURIOUS = "spurious"                      # injected machine fault


# Hot code reads enum members through module names: an Enum class
# attribute load is never specialized (EnumType defines __getattr__).
_MODIFIED = LineState.MODIFIED
_SHARED = LineState.SHARED
_CONFLICT_IMMEDIATE = AbortReason.CONFLICT_IMMEDIATE
_CONFLICT_TIMEOUT = AbortReason.CONFLICT_TIMEOUT
_CAPACITY = AbortReason.CAPACITY
_NACKED = AbortReason.NACKED


@dataclass(slots=True)
class PendingProbe:
    """A conflicting probe being delayed by the grace period."""

    line: int
    exclusive: bool
    requestor: int
    ack: Callable[[], None]


class CoreMemSystem:
    """L1 cache + transactional state machine for one core."""

    def __init__(
        self,
        core_id: int,
        machine: "Machine",
        policy: CyclePolicy,
        rng: np.random.Generator,
    ) -> None:
        self.core_id = core_id
        self.machine = machine
        self.sim = machine.sim
        self.params: MachineParams = machine.params
        self.policy = policy
        self.rng = rng
        self.cache = L1Cache(self.params)
        # line geometry and latencies of the hot paths (params are frozen)
        self._line_words = self.params.line_words
        self._l1_hit = self.params.l1_hit
        self._commit_cycles = self.params.commit_cycles

        # transactional state
        self.tx_active = False
        self.tx_start = 0.0
        self.tx_epoch = 0
        self.write_buffer: dict[int, int] = {}
        self.pending_probes: list[PendingProbe] = []
        self._grace_event = None
        self._grace_mode = "requestor_wins"
        self._abort_cb: Callable[[AbortReason], None] | None = None
        # the one outstanding miss (the core issues one access at a
        # time): its operands, and the grant callback bound once
        self._miss: tuple | None = None
        self._grant_cb = self._on_grant

        # stats
        self.stats = machine.stats.core(core_id)
        # metric handles, bound once: registry.reset() zeroes in place,
        # so these survive the warmup counter reset
        metrics = machine.metrics
        self._m_txns_started = metrics.counter("txns_started")
        self._m_commits = metrics.counter("commits")
        self._m_aborts_rw = metrics.counter("aborts_rw")
        self._m_aborts_ra = metrics.counter("aborts_ra")
        self._m_conflicts = metrics.counter("conflicts")
        self._m_grace_granted = metrics.counter("grace_granted")
        self._m_grace_expired = metrics.counter("grace_expired")
        self._m_grace_delay = metrics.histogram(
            "grace_delay_cycles", edges=GRACE_DELAY_EDGES
        )

    # ------------------------------------------------------------------
    # Transaction lifecycle (driven by the core)
    # ------------------------------------------------------------------
    def begin_tx(self, abort_cb: Callable[[AbortReason], None]) -> int:
        """Open a transaction; returns its epoch token."""
        if self.tx_active:
            raise ProtocolError(f"core {self.core_id}: nested begin_tx")
        self.tx_active = True
        self.tx_start = self.sim.now
        self.tx_epoch += 1
        self.write_buffer = {}
        self._abort_cb = abort_cb
        self.stats.tx_started += 1
        self._m_txns_started.inc()
        if self.machine.tracing:
            self.machine.emit("txn_begin", self.core_id)
        self.machine.faults.on_begin_tx(self)
        return self.tx_epoch

    def next_commit_addr(self) -> int | None:
        """Commit phase, lazy validation: the next write-set address
        whose line still needs exclusive ownership (None when the write
        set is fully owned and :meth:`finalize_commit` may run).

        The core acquires these one at a time with ``AcquireX``; each
        acquisition probes readers/writers elsewhere, which is exactly
        where requestor-wins conflicts — and the grace-period decision
        on the other side — happen in the paper's implementation.
        """
        if not self.tx_active:
            raise ProtocolError(f"core {self.core_id}: commit without tx")
        # Reverse program order: the last-written line is typically the
        # hottest (a data structure's anchor pointer), and acquiring it
        # first maximizes the owned-but-uncommitted window in which a
        # grace period can actually save the transaction (Figure 1's
        # "T1 holds A exclusive and is acquiring B" scenario).
        # every buffered address passed access's negative-address check
        line_words, lookup = self._line_words, self.cache.lookup
        for addr in reversed(self.write_buffer):
            line = addr // line_words
            entry = lookup(line)
            if entry is None:
                raise ProtocolError(
                    f"core {self.core_id}: write-set line {line} not "
                    f"resident at commit (tx should have aborted)"
                )
            if entry.state is not _MODIFIED:
                return addr
        return None

    def finalize_commit(self, done: Callable[[], None]) -> None:
        """Apply the write buffer (the commit's atomicity point), clear
        tx bits, answer delayed probes, call ``done`` after the commit
        latency."""
        if not self.tx_active:
            raise ProtocolError(f"core {self.core_id}: commit without tx")
        line_words, lookup = self._line_words, self.cache.lookup
        for addr in self.write_buffer:
            line = addr // line_words
            entry = lookup(line)
            if entry is None or entry.state is not _MODIFIED:
                raise ProtocolError(
                    f"core {self.core_id}: finalize_commit without owning "
                    f"line {line}"
                )
        for addr, value in self.write_buffer.items():
            self.machine.memory[addr] = value
        self.write_buffer = {}
        self.cache.clear_tx_bits()
        self.tx_active = False
        self._abort_cb = None
        self._cancel_grace()
        self.machine.faults.on_end_tx(self)
        self.stats.tx_committed += 1
        self._m_commits.inc()
        duration = self.sim.now - self.tx_start
        machine = self.machine
        if machine.commit_observers:
            # µ-estimator noise perturbs what the online profiler sees
            # (the trace below keeps the true duration)
            observed = machine.faults.noisy_commit_duration(duration)
            for observer in machine.commit_observers:
                observer(observed)
        if machine.tracing:
            machine.emit("commit", self.core_id, duration=duration)
        if self.pending_probes:
            self._release_probes(aborting=False)
        self.sim.after(self._commit_cycles, done, label="commit")

    def abort_tx(self, reason: AbortReason) -> None:
        """Abort: discard the write buffer, invalidate transactional
        lines, answer delayed probes, notify the core."""
        if not self.tx_active:
            return  # already dead (e.g. cycle abort raced the timer)
        self.write_buffer = {}
        dropped = self.cache.invalidate_tx_lines()
        for line in dropped:
            self.machine.directory.drop_sharer(self.core_id, line)
        self.tx_active = False
        self._cancel_grace()
        self.machine.faults.on_end_tx(self)
        self.stats.tx_aborted += 1
        key = reason.value  # a property: read it once
        self.stats.abort_reasons[key] = (
            self.stats.abort_reasons.get(key, 0) + 1
        )
        # NACKED is the one requestor-aborts death; everything else
        # (timeouts, capacity, cycles, spurious, ...) counts as the
        # requestor-wins family for the lifecycle invariant
        # aborts_rw + aborts_ra + commits == txns_started
        if reason is _NACKED:
            self._m_aborts_ra.inc()
        else:
            self._m_aborts_rw.inc()
        if self.machine.tracing:
            self.machine.emit(
                "abort", self.core_id, reason=key, age=self.tx_age()
            )
        if self.pending_probes:
            self._release_probes(aborting=True)
        cb = self._abort_cb
        self._abort_cb = None
        if cb is not None:
            cb(reason)

    def tx_age(self) -> int:
        return int(self.sim.now - self.tx_start)

    # ------------------------------------------------------------------
    # Memory accesses (driven by the core)
    # ------------------------------------------------------------------
    def access(
        self,
        addr: int,
        write: bool,
        tx: bool,
        done: Callable[[object], None],
        value: int | None = None,
        cas: tuple[int, int] | None = None,
        acquire: bool = False,
    ) -> bool:
        """Perform one word access; ``done(result)`` fires when complete.

        ``result`` is the read value for loads, ``None`` for stores, and
        ``(success, old_value)`` for CAS.  A transactional access whose
        transaction dies mid-miss still completes the fill (harmlessly),
        but the core's epoch guard discards the result.

        Lazy validation: a transactional *store* only fetches the line
        in S and buffers the value (tx-write bit on the S line tracks
        write-set membership); exclusive ownership is acquired at commit
        via ``acquire=True`` accesses.  Non-transactional stores and CAS
        acquire M immediately.

        Returns True when a completion will be delivered; False when the
        access died immediately with a capacity abort (``done`` will
        never fire).  A miss while another miss is outstanding raises
        :class:`ProtocolError`: the core issues one access at a time.
        """
        if tx and not self.tx_active:
            raise ProtocolError(f"core {self.core_id}: tx access outside tx")
        if cas is not None and (tx or write):
            raise ProtocolError("CAS is its own access kind (non-tx)")
        if acquire and not self.tx_active:
            raise ProtocolError("acquire is a commit-phase (tx) access")
        if addr < 0:  # MachineParams.line_of, inlined
            raise InvalidParameterError(f"negative address {addr}")
        line = addr // self._line_words
        exclusive = acquire or cas is not None or (write and not tx)
        epoch = self.tx_epoch

        if (
            tx
            and self.pending_probes
            and self._doomed_by_pending_probe(line, exclusive, write)
        ):
            # We are delaying a probe on this very line; the prober's
            # request occupies the line's directory slot until we answer,
            # so a request of our own would deadlock behind it (and a
            # buffered write on a non-owned line could never be acquired
            # at commit).  The conflict is now known lost — answer it by
            # aborting (dynamic wedge; see also _is_wedged).
            self.stats.abort_reasons["wedged"] = (
                self.stats.abort_reasons.get("wedged", 0) + 1
            )
            self.abort_tx(_CONFLICT_IMMEDIATE)
            return False

        if self.cache.hit(line, exclusive, tx, write or acquire) is not None:
            self.stats.l1_hits += 1
            if acquire:
                result: object = None
            else:
                result = self._apply_effect(addr, write, tx, value, cas, epoch)
            self.sim.after(self._l1_hit, done, result, label="l1-hit")
            return True

        # Miss path: make room, then ask the directory.
        if self._miss is not None:
            raise ProtocolError(
                f"core {self.core_id}: miss on line {line} while another "
                f"miss is outstanding"
            )
        self.stats.l1_misses += 1
        victim = self.cache.victim_for(line, True)  # protect_tx
        if victim is not None:
            if victim.transactional:
                # Algorithm 1 line 4: evicting a transactional line
                # aborts, and the access dies with its transaction
                self.abort_tx(_CAPACITY)
                return False
            self._evict(victim)
        self._miss = (
            addr, write, tx, value, cas, acquire, done, line, epoch, exclusive
        )
        self.machine.directory.request(
            self.core_id, line, exclusive, self._grant_cb
        )
        return True

    def _on_grant(self, first_touch: bool, latency: int) -> None:
        """The outstanding miss is granted: install the line and apply
        the value effect at the grant instant — the coherence
        serialization point — and charge the data-return latency to this
        access's completion only."""
        miss, self._miss = self._miss, None
        addr, write, tx, value, cas, acquire, done, line, epoch, exclusive = miss
        cache = self.cache
        # Re-check only while ways are reserved.  The access made room
        # under the reserved_ways of its own moment; until this grant
        # nothing installs into this L1 (one outstanding miss per core),
        # and probes and aborts only remove lines.  With no ways
        # reserved now, the set holds the line itself or fewer than
        # l1_assoc lines, so victim_for would return None.
        if cache.reserved_ways:
            victim = cache.victim_for(line, self.tx_active)  # protect_tx
            if victim is not None:
                if victim.transactional:
                    # Algorithm 1 line 4, as in access: the abort drops
                    # every transactional line, which makes room, and
                    # the line below installs non-transactionally
                    self.abort_tx(_CAPACITY)
                else:
                    self._evict(victim)
        cache.install(
            line,
            _MODIFIED if exclusive else _SHARED,
            tx and self.tx_active and self.tx_epoch == epoch,
            write or acquire,
        )
        if acquire:
            result: object = None
        else:
            result = self._apply_effect(addr, write, tx, value, cas, epoch)
        self.sim.after(latency + self._l1_hit, done, result, label="fill-done")

    def _apply_effect(
        self,
        addr: int,
        write: bool,
        tx: bool,
        value: int | None,
        cas: tuple[int, int] | None,
        epoch: int,
    ) -> object:
        """Value semantics, applied at permission time (atomicity point)."""
        memory = self.machine.memory
        if cas is not None:
            expected, new = cas
            old = memory.get(addr, 0)
            if old == expected:
                memory[addr] = new
                return (True, old)
            return (False, old)
        if write:
            if value is None:
                raise SimulationError("write without a value")
            if tx:
                if self.tx_active and self.tx_epoch == epoch:
                    self.write_buffer[addr] = value
                # else: transaction died mid-miss; drop silently
            else:
                memory[addr] = value
            return None
        # read: own speculative value first
        if tx and self.tx_active and self.tx_epoch == epoch:
            if addr in self.write_buffer:
                return self.write_buffer[addr]
        return memory.get(addr, 0)

    # -- eviction -----------------------------------------------------------
    def _evict(self, entry) -> None:
        if entry.state is _MODIFIED:
            self.machine.directory.writeback(self.core_id, entry.line)
            self.stats.writebacks += 1
        self.cache.evict(entry.line)

    # ------------------------------------------------------------------
    # Probes (driven by the directory)
    # ------------------------------------------------------------------
    def handle_probe(
        self,
        line: int,
        exclusive: bool,
        requestor: int,
        ack: Callable[[], None],
    ) -> None:
        """Invalidate/downgrade ``line`` — or delay, if it conflicts with
        the running transaction."""
        entry = self.cache.lookup(line)
        if entry is None:
            # silently evicted (S) or dropped by an abort; nothing to do
            self.sim.after(1, ack, label="probe-ack")
            return
        conflicts = self.tx_active and (
            entry.tx_write or (exclusive and entry.tx_read)
        )
        if not conflicts:
            # answer at once, applied to the entry already in hand
            if exclusive:
                self.cache.invalidate(entry)
            elif entry.state is _MODIFIED:
                self.cache.downgrade(entry)
            else:
                raise ProtocolError(
                    f"core {self.core_id}: GETS probe for line {line} held "
                    f"in S"
                )
            self.sim.after(1, ack, label="probe-ack")
            return

        # --- the transactional conflict problem, live ---
        self.stats.conflicts_received += 1
        self._m_conflicts.inc()
        if self.machine.wedge_aware and self._is_wedged(line, entry):
            # The contested line is in our write set but not yet owned:
            # we cannot acquire it while the requestor's GETX is in
            # service, so our remaining time is structurally infinite —
            # the theory's D -> inf case, where OPT aborts immediately.
            self.stats.abort_reasons["wedged"] = (
                self.stats.abort_reasons.get("wedged", 0) + 1
            )
            self.pending_probes.append(
                PendingProbe(line, exclusive, requestor, ack)
            )
            self.machine.note_wait(requestor, self.core_id)
            self.abort_tx(_CONFLICT_IMMEDIATE)
            return
        self.pending_probes.append(
            PendingProbe(line, exclusive, requestor, ack)
        )
        self.machine.note_wait(requestor, self.core_id)
        if self._grace_event is None:
            k = self.machine.chain_size(self.core_id)
            req_mem = self.machine.mems[requestor]
            # estimator-noise faults perturb the (age, k) the policy
            # sees; exact pass-through without a fault plan
            age_hat, k_hat = self.machine.faults.noisy_context(
                self.tx_age(), max(k, 2)
            )
            ctx = ConflictContext(
                tx_age=age_hat,
                chain_k=max(k_hat, 2),
                params=self.params,
                requestor_age=req_mem.tx_age() if req_mem.tx_active else None,
            )
            delay = int(self.policy.decide(ctx, self.rng))
            self.stats.grace_delay_stats.add(float(delay))
            self._m_grace_delay.observe(float(delay))
            # which side dies when the grace expires: hybrid policies
            # may resolve requestor-aborts for small chains
            mode = getattr(self.policy, "resolution", "requestor_wins")
            if callable(mode):
                mode = mode(ctx)
            self._grace_mode = mode
            machine = self.machine
            tracing = machine.tracing
            if tracing:
                machine.emit(
                    "conflict",
                    self.core_id,
                    line=line,
                    requestor=requestor,
                    k=ctx.chain_k,
                    delay=delay,
                    mode=mode,
                )
            if delay <= 0:
                self._resolve_conflict(mode)
                return
            self._m_grace_granted.inc()
            if tracing:
                machine.emit(
                    "grace_granted", self.core_id, delay=delay, mode=mode
                )
            self._grace_event = self.sim.after(
                delay, self._grace_expired, self.tx_epoch, label="grace"
            )
        self.machine.check_cycle(requestor)

    def _doomed_by_pending_probe(
        self, line: int, exclusive: bool, write: bool
    ) -> bool:
        """Dynamic wedge check at access time (the caller skips it
        while no probe is pending).

        True when we hold a *delayed* probe on ``line`` and either (a)
        this access needs a coherence request of its own (it would queue
        behind the prober's in-service request — deadlock until the
        grace timer), or (b) it is a transactional store to a line we do
        not own exclusively (commit would need such a request later).
        """
        if not any(p.line == line for p in self.pending_probes):
            return False
        entry = self.cache.lookup(line)
        return entry is None or (
            entry.state is not _MODIFIED and (exclusive or write)
        )

    def _is_wedged(self, line: int, entry) -> bool:
        """True when the probed line is in our write set but not yet
        exclusively owned — we could never commit while this probe's
        request occupies the line's directory slot."""
        if entry.state is _MODIFIED:
            return False
        line_words = self._line_words
        for addr in self.write_buffer:
            if addr // line_words == line:
                return True
        return False

    def _grace_expired(self, epoch: int) -> None:
        self._grace_event = None
        if self.tx_active and self.tx_epoch == epoch:
            # counted only when the timer actually resolves a live
            # transaction — commits/aborts cancel their timers, which is
            # why grace_granted >= grace_expired is an invariant
            self._m_grace_expired.inc()
            self.machine.emit("grace_expired", self.core_id)
            self._resolve_conflict(self._grace_mode, timeout=True)

    def _resolve_conflict(self, mode: str, *, timeout: bool = False) -> None:
        """Grace over: enforce the resolution strategy.

        ``requestor_wins`` — abort this (receiver) transaction, which
        answers the pending probes.

        ``requestor_aborts`` — abort the *transactional requestors* of
        every pending probe (NACK); the receiver keeps running and the
        probes stay pending until it commits or dies.  A
        non-transactional requestor (a CAS or a fallback store) cannot
        be aborted and simply continues to wait — the only sound
        semantics for non-speculative requests, and the reason real
        requestor-aborts HTMs still bound the wait (our receiver's
        commit bounds it here).
        """
        if mode == "requestor_aborts":
            nacked = 0
            for probe in list(self.pending_probes):
                mem = self.machine.mems[probe.requestor]
                if mem.tx_active:
                    mem.abort_tx(_NACKED)
                    nacked += 1
            self.stats.nacks_sent += nacked
            # The receiver lives on; probes are answered at its commit or
            # abort.  The NACKed requests still occupy their lines'
            # directory slots until then, so two RA receivers can block
            # each other through lines neither is probed on — a deadlock
            # no waits-for edge sees.  Real requestor-aborts designs
            # bound the NACK window for exactly this reason; we arm a
            # requestor-wins *backstop* timer: one more abort-cost's
            # worth of cycles to commit, then the receiver yields.
            backstop = self.tx_age() + self.params.abort_overhead
            self._grace_mode = "requestor_wins"
            self._m_grace_granted.inc()
            if self.machine.tracing:
                self.machine.emit(
                    "grace_granted",
                    self.core_id,
                    delay=max(backstop, 1),
                    mode="requestor_wins",
                    backstop=True,
                )
            self._grace_event = self.sim.after(
                max(backstop, 1),
                self._grace_expired,
                self.tx_epoch,
                label="ra-backstop",
            )
            return
        self.abort_tx(_CONFLICT_TIMEOUT if timeout else _CONFLICT_IMMEDIATE)

    def _release_probes(self, *, aborting: bool) -> None:
        """Answer every delayed probe (on commit or abort)."""
        probes, self.pending_probes = self.pending_probes, []
        for probe in probes:
            # on abort the tx lines are already gone; on commit the line
            # survives and must be downgraded/invalidated now
            if not aborting:
                self._apply_probe_post_commit(probe)
            self.machine.clear_wait(probe.requestor, self.core_id)
            self.sim.after(1, probe.ack, label="probe-release")

    def _apply_probe_post_commit(self, probe: PendingProbe) -> None:
        entry = self.cache.lookup(probe.line)
        if entry is None:
            return
        if probe.exclusive:
            self.cache.invalidate(entry)
            self.machine.directory.drop_sharer(self.core_id, probe.line)
        elif entry.state is _MODIFIED:
            self.cache.downgrade(entry)

    def _cancel_grace(self) -> None:
        if self._grace_event is not None:
            self.sim.cancel(self._grace_event)
            self._grace_event = None
