"""The simulated multicore: cores + L1s + directory + memory, wired up.

The machine also owns the *waits-for graph* used for two things the
paper's model requires: chain-size estimation (the ``k`` fed to the
conflict policy) and cycle detection (assumption (c) — real HTMs that
delay responses detect conflict cycles and abort every transaction
involved; reference [2] in the paper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import InvalidParameterError, SimulationError
from repro.faults.injectors import injector_for
from repro.faults.plan import FaultPlan
from repro.htm.controller import AbortReason, CoreMemSystem
from repro.htm.directory import Directory
from repro.htm.params import MachineParams
from repro.htm.stats import MachineStats
from repro.obs import metrics as obs_metrics
from repro.obs import tracebus as obs_trace
from repro.rngutil import spawn_streams
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.htm.core_model import Core
    from repro.workloads.base import Workload

__all__ = ["Machine", "MachineStats"]


class Machine:
    """A runnable HTM multicore.

    Typical use::

        machine = Machine(params, policy_factory=lambda cid: RandDelay())
        machine.load(workload, seed=1)
        stats = machine.run(2_000_000)
        print(stats.throughput_ops_per_sec(params.clock_ghz))
    """

    def __init__(
        self,
        params: MachineParams,
        policy_factory,
        *,
        detect_cycles: bool = True,
        wedge_aware: bool = True,
        topology=None,
        faults: "FaultPlan | dict | None" = None,
    ) -> None:
        self.params = params
        self.sim = Simulator()
        # fault injection (repro.faults): a null plan keeps the shared
        # inert injector, so clean runs are byte-identical to a machine
        # built without the fault layer
        if isinstance(faults, dict):
            faults = FaultPlan.from_dict(faults)
        self.fault_plan = faults
        self.faults = injector_for(faults)
        self.memory: dict[int, int] = {}
        # observability: an always-on machine-local metrics registry.
        # When a process-wide capture is active (repro.obs.capture /
        # the CLI's --metrics-out), instruments chain to it so every
        # increment lands in both; otherwise the parent is None and the
        # local add is the whole cost.
        parent = obs_metrics.get_registry()
        self.metrics = obs_metrics.MetricsRegistry(
            parent=parent if parent.enabled else None
        )
        self.bus = obs_trace.get_bus()
        self.stats = MachineStats(params.n_cores, registry=self.metrics)
        # optional repro.obs.PhaseProfiler (see attach_profiler)
        self.profiler = None
        self.detect_cycles = detect_cycles
        # wedge_aware: receivers whose unacquired write set contains the
        # contested line abort immediately (structurally D = inf); see
        # CoreMemSystem._is_wedged and the abl_wedge ablation bench
        self.wedge_aware = wedge_aware
        self.draining = False
        # line 0 is reserved so that word address 0 can serve as the
        # null pointer in linked workloads
        self._alloc_ptr = params.line_words
        self._policy_factory = policy_factory
        self._streams: list[np.random.Generator] = []
        self.mems: list[CoreMemSystem] = []
        self.cores: list["Core"] = []
        self.workload: "Workload | None" = None
        # callbacks fired with each committed transaction's duration in
        # cycles (the online-µ feed, repro.htm.commit_feed)
        self.commit_observers: list = []
        # waits-for multiset: (waiter_core, holder_core) -> count
        self._waits: dict[tuple[int, int], int] = {}
        # incremental adjacency views of the same multiset (holder ->
        # waiters, waiter -> holders), maintained by note_wait /
        # clear_wait so the cycle/chain traversals iterate a node's
        # neighbors directly instead of scanning every edge
        self._waiters_adj: dict[int, set[int]] = {}
        self._holders_adj: dict[int, set[int]] = {}
        self.directory = Directory(
            self.sim,
            params,
            self.mems,  # replaced by load()
            topology=topology,  # None -> FixedLatency(params.hop)
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def emit(self, kind: str, core: int = -1, **detail) -> None:
        """Publish one typed event at the current simulated time to
        ``self.bus`` (the process trace bus at construction; assign a
        :class:`~repro.obs.TraceBus` with a subscribed
        :class:`~repro.sim.trace.Tracer` for a per-machine timeline)."""
        if self.bus.enabled:
            self.bus.emit(self.sim.now, kind, core, **detail)

    @property
    def tracing(self) -> bool:
        """Whether :meth:`emit` reaches anyone; hot paths check it before
        building an event's details."""
        return self.bus.enabled

    def attach_profiler(self, profiler) -> None:
        """Attach a :class:`repro.obs.PhaseProfiler`: the kernel routes
        event firing through it and :meth:`run` times its phases."""
        self.profiler = profiler
        self.sim.profiler = profiler

    # ------------------------------------------------------------------
    # Memory allocation (workload setup)
    # ------------------------------------------------------------------
    def alloc(self, words: int, *, line_aligned: bool = True) -> int:
        """Bump-allocate ``words`` of address space; line alignment keeps
        logically distinct objects on distinct cache lines (the usual
        padding discipline for concurrent data structures)."""
        if words < 1:
            raise InvalidParameterError(f"alloc of {words} words")
        if line_aligned and self._alloc_ptr % self.params.line_words:
            self._alloc_ptr += (
                self.params.line_words - self._alloc_ptr % self.params.line_words
            )
        base = self._alloc_ptr
        self._alloc_ptr += words
        return base

    def poke(self, addr: int, value: int) -> None:
        """Initialize memory (setup only)."""
        self.memory[addr] = value

    def peek(self, addr: int) -> int:
        return self.memory.get(addr, 0)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def load(self, workload: "Workload", *, seed: int | None = None) -> None:
        """Instantiate mem systems and cores, let the workload set up its
        shared state."""
        from repro.htm.core_model import Core  # local import breaks cycle

        n = self.params.n_cores
        self._streams = spawn_streams(seed, 2 * n)
        self.mems = [
            CoreMemSystem(i, self, self._policy_factory(i), self._streams[i])
            for i in range(n)
        ]
        self.directory.controllers = self.mems
        self.workload = workload
        workload.setup(self)
        self.cores = [
            Core(i, self, self.mems[i], workload, self._streams[n + i])
            for i in range(n)
        ]
        # Arm the injector last: its streams derive from the "faults"
        # namespace of the same seed, independent of every per-core
        # stream spawned above (loading with a plan never perturbs the
        # workload's own randomness).
        self.faults.arm(self, seed if isinstance(seed, int) else None)

    def run(
        self,
        horizon_cycles: float,
        *,
        warmup_cycles: float = 0.0,
        drain: bool = True,
    ) -> MachineStats:
        """Run all cores until the cycle horizon; returns the stats.

        ``warmup_cycles`` lets caches and contention reach steady state
        before counters are (re)started.  With ``drain`` (default), no
        new operations are issued past the horizon but in-flight ones
        run to completion, so workload verification sees a quiescent
        state (no torn in-flight transactions).  Throughput uses the
        horizon window; at most one drained op per core lands outside
        it.
        """
        if not self.cores:
            raise SimulationError("load() a workload before run()")
        if horizon_cycles <= warmup_cycles:
            raise InvalidParameterError("horizon must exceed warmup")
        self.draining = False
        for core in self.cores:
            core.start()
        prof = self.profiler

        def timed(name):
            from contextlib import nullcontext

            return prof.phase(name) if prof is not None else nullcontext()

        if warmup_cycles > 0.0:
            with timed("warmup"):
                self.sim.run(until=warmup_cycles)
            self._reset_counters()
        with timed("measure"):
            self.sim.run(until=horizon_cycles)
        self.stats.cycles = horizon_cycles - warmup_cycles
        if drain:
            self.draining = True
            # generous safety horizon: every in-flight op finishes well
            # within this unless the machine is livelocked (a bug)
            with timed("drain"):
                self.sim.run(
                    until=horizon_cycles + max(1e6, horizon_cycles),
                    stop_when=lambda: all(c.idle for c in self.cores),
                )
            if not all(c.idle for c in self.cores):
                raise SimulationError(
                    "drain did not quiesce: in-flight operations survived "
                    "a full extra horizon (livelock?)"
                )
        return self.stats

    def _reset_counters(self) -> None:
        # zero the registry in place: controller-held handles keep
        # pointing at the same instruments after the warmup reset
        self.metrics.reset()
        fresh = MachineStats(self.params.n_cores, registry=self.metrics)
        for mem in self.mems:
            mem.stats = fresh.core(mem.core_id)
        for core in self.cores:
            core.stats = fresh.core(core.core_id)
        self.stats = fresh

    # ------------------------------------------------------------------
    # Waits-for graph
    # ------------------------------------------------------------------
    def note_wait(self, waiter: int, holder: int) -> None:
        key = (waiter, holder)
        count = self._waits.get(key, 0) + 1
        self._waits[key] = count
        if count == 1:
            self._waiters_adj.setdefault(holder, set()).add(waiter)
            self._holders_adj.setdefault(waiter, set()).add(holder)

    def clear_wait(self, waiter: int, holder: int) -> None:
        key = (waiter, holder)
        count = self._waits.get(key, 0)
        if count <= 1:
            if self._waits.pop(key, None) is not None:
                self._drop_edge(waiter, holder)
        else:
            self._waits[key] = count - 1

    def _drop_edge(self, waiter: int, holder: int) -> None:
        waiters = self._waiters_adj.get(holder)
        if waiters is not None:
            waiters.discard(waiter)
            if not waiters:
                del self._waiters_adj[holder]
        holders = self._holders_adj.get(waiter)
        if holders is not None:
            holders.discard(holder)
            if not holders:
                del self._holders_adj[waiter]

    def transitive_waiters(self, holder: int) -> set[int]:
        """Every core transitively delayed by ``holder``."""
        seen: set[int] = set()
        frontier = [holder]
        adj = self._waiters_adj
        while frontier:
            node = frontier.pop()
            # sorted: set order is hash-dependent, and the traversal
            # order here decides abort victims -> event schedule
            for waiter in sorted(adj.get(node, ())):
                if waiter not in seen and waiter != holder:
                    seen.add(waiter)
                    frontier.append(waiter)
        return seen

    def chain_size(self, holder: int) -> int:
        """The paper's ``k``: receiver + every transaction it delays.

        Direct probe waiters and their transitive waiters come from the
        waits-for graph; requests queued at the directory behind a
        waiter's in-service request are delayed too and are counted via
        :meth:`queued_behind`.
        """
        waiters = self.transitive_waiters(holder)
        queued = sum(self.queued_behind(w) for w in sorted(waiters))
        return 1 + len(waiters) + queued

    def queued_behind(self, core: int) -> int:
        """Requests queued behind ``core``'s in-service request(s), as
        the directory counts them."""
        return self.directory.queued_behind.get(core, 0)

    def check_cycle(self, requestor: int) -> None:
        """After adding edge ``requestor -> holder``: if the requestor is
        reachable *from* any of its holders, a conflict cycle exists;
        abort every transactional core on it (paper assumption (c))."""
        if not self.detect_cycles:
            return
        path = self._find_cycle_path(requestor)
        if path is None:
            return
        self.stats.cycle_aborts += 1
        for core_id in path:
            mem = self.mems[core_id]
            if mem.tx_active:
                mem.abort_tx(AbortReason.CYCLE)

    def _find_cycle_path(self, start: int) -> list[int] | None:
        """DFS over waits-for edges from ``start``; returns the cycle's
        node list if ``start`` is reachable from itself."""
        stack: list[tuple[int, list[int]]] = [(start, [start])]
        visited: set[int] = set()
        adj = self._holders_adj
        while stack:
            node, path = stack.pop()
            # sorted: which cycle is found first (and therefore which
            # cores abort) must not depend on set hash order
            for holder in sorted(adj.get(node, ())):
                if holder == start:
                    return path
                if holder not in visited:
                    visited.add(holder)
                    stack.append((holder, path + [holder]))
        return None

    # ------------------------------------------------------------------
    # Invariant checking (tests call this at quiescent points)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        resident = {
            mem.core_id: set(mem.cache.resident_lines()) for mem in self.mems
        }
        self.directory.check_invariants(resident)
        for mem in self.mems:
            if not mem.tx_active and mem.cache.transactional_lines():
                raise SimulationError(
                    f"core {mem.core_id}: tx bits set without an active tx"
                )
