"""Full-map MSI directory at the shared L2.

The directory is the protocol's ordering point: per-line FIFO service
(a busy bit plus a request queue), probe fan-out to caches holding the
line, and grant once every probe has been acknowledged.  Conflicting
probes may be *delayed* by the receiver's HTM controller — the paper's
grace-period mechanism lives entirely on the probe-ack path, which is
why the directory logic itself needed no modification in the paper's
Graphite implementation either (Section 8.2).

Simplifications (documented in DESIGN.md): S-state evictions are
silent (probes tolerate absent lines); M-state evictions update the
directory metadata synchronously at eviction time (non-transactional
stores publish their values immediately, so the writeback carries no
data); probe fan-out is parallel with a fixed per-hop latency.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ProtocolError
from repro.htm.params import MachineParams
from repro.sim.engine import Simulator

__all__ = ["DirectoryEntry", "PendingRequest", "Directory"]


@dataclass(slots=True)
class PendingRequest:
    """A coherence request awaiting service.

    ``grant_cb(first_touch, latency)`` fires at the requestor the
    instant ownership transfers (the directory's serialization point);
    ``latency`` is the remaining data-return delay the requestor must
    charge before completing the access, and ``first_touch`` says
    whether that delay includes the DRAM fill.
    """

    core: int
    line: int
    exclusive: bool
    grant_cb: Callable[[bool, int], None]
    acks_outstanding: int = 0


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one line."""

    owner: int | None = None
    sharers: set[int] = field(default_factory=set)
    busy: bool = False
    queue: deque[PendingRequest] = field(default_factory=deque)
    touched: bool = False

    def holders(self) -> set[int]:
        out = set(self.sharers)
        if self.owner is not None:
            out.add(self.owner)
        return out


class Directory:
    """The shared-L2 directory controller.

    Parameters
    ----------
    sim:
        The discrete-event simulator.
    params:
        Machine parameters (latencies).
    controllers:
        The cores' HTM/L1 controllers, indexed by core id.  A probe is
        ``controllers[target].handle_probe(line, needs_exclusive,
        requestor, ack_cb)``; the controller calls ``ack_cb()`` when the
        line has been downgraded or invalidated (possibly after a grace
        period).  The method is looked up when the probe is sent.
    """

    def __init__(
        self,
        sim: Simulator,
        params: MachineParams,
        controllers: Sequence,
        *,
        topology=None,
    ) -> None:
        from repro.htm.interconnect import FixedLatency

        self.sim = sim
        self.params = params
        self.controllers = controllers
        self.topology = (
            topology if topology is not None else FixedLatency(params.hop)
        )
        self.entries: dict[int, DirectoryEntry] = {}
        # core -> requests queued behind its in-service request(s): the
        # sum of len(queue) - 1 over busy entries whose head is that
        # core's, kept where the sum changes (Machine.queued_behind)
        self.queued_behind: dict[int, int] = {}
        # counters for stats / tests
        self.requests = 0
        self.probes_sent = 0
        self.grants = 0
        # the stage handlers scheduled per request, bound once
        self._arrive_cb = self._arrive
        self._lookup_done_cb = self._lookup_done
        self._grant_cb = self._grant

    # ------------------------------------------------------------------
    def entry(self, line: int) -> DirectoryEntry:
        e = self.entries.get(line)
        if e is None:
            e = DirectoryEntry()
            self.entries[line] = e
        return e

    # -- requests ---------------------------------------------------------
    def request(
        self,
        core: int,
        line: int,
        exclusive: bool,
        grant_cb: Callable[[bool, int], None],
    ) -> None:
        """A core's L1 asks for the line (GETS or GETX); arrives after
        one network hop.  ``grant_cb(first_touch, latency)`` fires at the
        grant (see :class:`PendingRequest`)."""
        self.requests += 1
        req = PendingRequest(core, line, exclusive, grant_cb)
        self.sim.after(
            self.topology.core_to_dir(core, line),
            self._arrive_cb,
            req,
            label="dir-arrive",
        )

    # Each stage looks the line's entry up once; _arrive creates it and
    # entries are never removed, so the later stages index directly.
    # A line is busy from the start of its head's lookup to that head's
    # grant, and _grant starts the next head at once, so between events
    # an idle line's queue is empty.  _arrive and _grant start a head's
    # lookup themselves, and keep queued_behind where the queue changes.
    def _arrive(self, req: PendingRequest) -> None:
        entry = self.entries.get(req.line)
        if entry is None:
            entry = self.entries[req.line] = DirectoryEntry()
        entry.queue.append(req)
        if entry.busy:
            head = entry.queue[0].core
            self.queued_behind[head] = self.queued_behind.get(head, 0) + 1
            return
        entry.busy = True  # req is the head, with nothing behind it
        self.sim.after(self.params.dir_lookup, self._lookup_done_cb, req,
                       label="dir-lookup")

    def _lookup_done(self, req: PendingRequest) -> None:
        entry = self.entries[req.line]
        core, owner = req.core, entry.owner
        if req.exclusive:
            if owner == core:
                raise ProtocolError(
                    f"core {core} GETX on line {req.line} it already owns"
                )
            # sorted(entry.holders() - {core})
            sharers = entry.sharers
            targets = sorted(sharers)
            if core in sharers:
                targets.remove(core)
            if owner is not None and owner not in sharers:
                insort(targets, owner)
        else:
            if core == owner:
                raise ProtocolError(
                    f"core {core} GETS on line {req.line} it owns in M"
                )
            targets = [] if owner is None else [owner]
        if not targets:
            self._grant(req)
            return
        req.acks_outstanding = len(targets)
        for target in targets:
            self.probes_sent += 1
            self.sim.after(
                self.topology.dir_to_core(req.line, target),
                self.controllers[target].handle_probe,
                req.line,
                req.exclusive,
                req.core,
                lambda r=req, t=target: self._ack(r, t),
                label="dir-probe",
            )

    def _ack(self, req: PendingRequest, target: int) -> None:
        if req.acks_outstanding <= 0:
            raise ProtocolError(
                f"spurious ack for line {req.line} core {req.core}"
            )
        req.acks_outstanding -= 1
        if req.acks_outstanding == 0:
            # the closing ack travels back to the directory slice
            self.sim.after(
                self.topology.core_to_dir(target, req.line),
                self._grant_cb,
                req,
                label="dir-ack",
            )

    def _grant(self, req: PendingRequest) -> None:
        entry = self.entries[req.line]
        queue = entry.queue
        if not queue or queue[0] is not req:
            raise ProtocolError(f"grant for non-head request on line {req.line}")
        first_touch = not entry.touched
        entry.touched = True
        # state update: probed holders have invalidated/downgraded
        if req.exclusive:
            entry.owner = req.core
            entry.sharers.clear()
        else:
            if entry.owner is not None and entry.owner != req.core:
                entry.sharers.add(entry.owner)  # downgraded M -> S
            entry.owner = None
            entry.sharers.add(req.core)
        queue.popleft()
        entry.busy = False
        if queue:  # no longer queued behind req.core
            self.queued_behind[req.core] -= len(queue)
        self.grants += 1
        # Ownership transfers NOW (the directory is the serialization
        # point); the data-return latency is reported to the requestor,
        # which installs the line immediately and completes the access
        # after the latency.  Installing at the grant instant closes the
        # classic stale-fill race where a probe lands inside the fill
        # window, finds nothing, and leaves a zombie S copy behind.
        latency = self.topology.dir_to_core(req.line, req.core) + (
            self.params.mem_latency if first_touch else 0
        )
        req.grant_cb(first_touch, latency)
        if queue:  # the next head's lookup starts after the grant
            entry.busy = True
            head = queue[0]
            behind = len(queue) - 1
            if behind:
                self.queued_behind[head.core] = (
                    self.queued_behind.get(head.core, 0) + behind
                )
            self.sim.after(self.params.dir_lookup, self._lookup_done_cb,
                           head, label="dir-lookup")

    # -- evictions ----------------------------------------------------------
    def writeback(self, core: int, line: int) -> None:
        """Synchronous metadata update for an M-state eviction."""
        entry = self.entry(line)
        if entry.owner != core:
            raise ProtocolError(
                f"writeback of line {line} by core {core}, owner is "
                f"{entry.owner}"
            )
        entry.owner = None

    def drop_sharer(self, core: int, line: int) -> None:
        """Tx-abort invalidations tell the directory immediately (keeps
        the full map exact; silent S evictions remain tolerated)."""
        entry = self.entry(line)
        entry.sharers.discard(core)
        if entry.owner == core:
            entry.owner = None

    # -- introspection --------------------------------------------------------
    def check_invariants(self, resident: dict[int, set[int]]) -> None:
        """Assert the single-writer invariant against the caches' view.

        ``resident`` maps core -> set of resident lines.  An M owner in
        the directory must be the only core whose cache holds the line
        in M; directory sharers may be stale supersets (silent
        evictions) but never miss a resident holder.
        """
        for line, entry in self.entries.items():
            if entry.owner is not None:
                for core, lines in resident.items():
                    if core != entry.owner and line in lines:
                        # resident elsewhere is legal only in S... which
                        # with an M owner is a violation
                        raise ProtocolError(
                            f"line {line}: owner {entry.owner} but also "
                            f"resident at core {core}"
                        )
            for core, lines in resident.items():
                if line in lines and core not in entry.holders():
                    raise ProtocolError(
                        f"line {line}: resident at core {core} but absent "
                        f"from directory state"
                    )
