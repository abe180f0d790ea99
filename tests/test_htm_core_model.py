"""The core model: instruction checks and the commit phase.

Each case runs a one-core machine whose operations yield a scripted
instruction sequence on their transactional body and on their fallback
path.  The core must reject an illegal instruction with a
:class:`SimulationError` rather than carry on, and must commit a body
by acquiring exactly the write-set lines it does not own yet.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError, SimulationError
from repro.htm import Machine, MachineParams, NoDelay
from repro.htm.controller import AbortReason
from repro.htm.isa import CAS, AbortTx, Compute, Read, Write
from repro.workloads.base import Operation, Workload


class ScriptedOp(Operation):
    name = "scripted"

    def __init__(self, body: list, fallback: list | None) -> None:
        self._body = body
        self._fallback = fallback

    def body(self, ctx):
        for instr in self._body:
            yield instr

    def has_fallback(self) -> bool:
        return self._fallback is not None

    def fallback(self, ctx):
        for instr in self._fallback:
            yield instr


class ScriptedWorkload(Workload):
    """Serves the same scripted operation until ``ops`` have been issued."""

    name = "scripted"

    def __init__(self, body: list, fallback: list | None = None,
                 ops: int = 1) -> None:
        self.body = body
        self.fallback = fallback
        self.ops = ops

    def setup(self, machine) -> None:
        pass

    def next_op(self, core_id, rng):
        if self.ops == 0:
            return None
        self.ops -= 1
        return ScriptedOp(self.body, self.fallback)

    def tuned_delay_cycles(self, params) -> int:
        return 1


def load_script(body, fallback=None, *, max_retries: int = 8, ops: int = 1):
    machine = Machine(
        MachineParams(n_cores=1, max_retries=max_retries), lambda i: NoDelay()
    )
    machine.load(ScriptedWorkload(body, fallback, ops), seed=1)
    return machine


def run_script(body, fallback=None, *, max_retries: int = 8):
    machine = load_script(body, fallback, max_retries=max_retries)
    machine.run(10_000.0)
    return machine


def record_accesses(machine) -> list[tuple[int, bool, bool]]:
    """Wrap core 0's memory accesses; the returned list fills with
    ``(addr, write, acquire)`` per access the core issues."""
    mem = machine.mems[0]
    real_access = mem.access
    log = []

    def access(addr, write, tx, done, value=None, cas=None, acquire=False):
        log.append((addr, write, acquire))
        return real_access(addr, write, tx, done, value, cas, acquire)

    mem.access = access
    return log


def test_legal_script_runs_on_both_paths():
    """The harness itself: a body that always self-aborts escalates to
    its fallback after ``max_retries`` attempts, and both paths run
    legal instructions to completion."""
    machine = run_script(
        [Read(8), Compute(3), AbortTx()],
        [Read(8), Write(8, 1), CAS(8, 1, 2)],
        max_retries=2,
    )
    stats = machine.stats
    assert stats.total("tx_aborted") == 2
    assert stats.total("fallback_ops") == 1
    assert machine.peek(8) == 2


def test_unknown_instruction_rejected():
    with pytest.raises(SimulationError, match="unknown instruction"):
        run_script([Read(8), "not an instruction"])


def test_unknown_instruction_rejected_on_fallback():
    with pytest.raises(SimulationError, match="unknown instruction"):
        run_script([AbortTx()], [object()], max_retries=1)


def test_cas_inside_transaction_rejected():
    with pytest.raises(SimulationError, match="CAS inside a transaction"):
        run_script([Read(8), CAS(8, 0, 1)])


def test_abort_on_fallback_path_rejected():
    with pytest.raises(SimulationError, match="AbortTx outside a transaction"):
        run_script([AbortTx()], [Read(8), AbortTx()], max_retries=1)


def test_commit_acquires_only_lines_not_yet_owned():
    """The first commit acquires the line its store fetched in S; the
    second transaction's store hits that M line, so it commits with no
    acquisition access at all."""
    machine = load_script([Write(8, 1)], ops=2)
    log = record_accesses(machine)
    machine.run(10_000.0)
    assert machine.stats.total("tx_committed") == 2
    assert log == [(8, True, False), (8, False, True), (8, True, False)]
    assert machine.peek(8) == 1


def test_read_only_commit_issues_no_access():
    """A read-only body reaches the commit phase with an empty write
    set: ``_acquire_next`` finalizes at once."""
    machine = load_script([Read(8)])
    log = record_accesses(machine)
    core = machine.cores[0]
    real_acquire_next = core._acquire_next
    commit_steps = []

    def acquire_next(token):
        commit_steps.append(token)
        real_acquire_next(token)

    core._acquire_next = acquire_next
    machine.run(10_000.0)
    assert machine.stats.total("tx_committed") == 1
    assert machine.stats.total("ops_completed") == 1
    assert commit_steps == [core._token]
    assert log == [(8, False, False)]


def test_abort_during_acquisition_defers_retry_until_it_drains():
    """An abort that lands while a commit-phase acquisition is in flight
    must not retry yet (that would give the core two outstanding
    requests).  The stale ``_acquired`` drains the slot and schedules
    the retry, and the retried transaction commits."""
    machine = load_script([Write(8, 1)])
    core, mem, sim = machine.cores[0], machine.mems[0], machine.sim
    real_access = mem.access
    events = []

    def access(addr, write, tx, done, value=None, cas=None, acquire=False):
        issued = real_access(addr, write, tx, done, value, cas, acquire)
        if acquire and not events:
            sim.after(1, abort)
        return issued

    def abort():
        mem.abort_tx(AbortReason.SPURIOUS)
        events.append(("abort", sim.now, core._outstanding,
                       core._retry_pending))

    real_acquired = core._acquired_cb

    def acquired(value):
        events.append(("acquired", sim.now))
        real_acquired(value)

    real_schedule_retry = core._schedule_retry

    def schedule_retry():
        events.append(("retry", sim.now, core._outstanding))
        real_schedule_retry()

    mem.access = access
    core._acquired_cb = acquired
    core._schedule_retry = schedule_retry
    machine.run(10_000.0)
    assert [event[0] for event in events] == ["abort", "acquired", "retry"]
    (_, abort_t, outstanding, deferred), (_, drained_t), retry = events
    assert outstanding and deferred
    assert drained_t > abort_t
    assert retry == ("retry", drained_t, False)
    assert machine.stats.total("tx_aborted") == 1
    assert machine.stats.total("tx_committed") == 1
    assert machine.peek(8) == 1


@pytest.mark.parametrize(
    "kind, fields, bad, message",
    [
        (Read, {"addr": 0}, {"addr": -1}, "negative address"),
        (Write, {"addr": 0, "value": 7}, {"addr": -1}, "negative address"),
        (CAS, {"addr": 0, "expected": 1, "new": 2}, {"addr": -1},
         "negative address"),
        (Compute, {"cycles": 1}, {"cycles": 0}, "compute cycles must be >= 1"),
    ],
)
def test_isa_record_validation(kind, fields, bad, message):
    """ISA records validate at construction, whether built by position or
    by keyword, and compare and print by their fields."""
    record = kind(*fields.values())
    assert record == kind(**fields)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    first = next(iter(fields))
    assert record != kind(**{**fields, first: fields[first] + 1})
    assert repr(record) == f"{kind.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()
    ) + ")"
    broken = {**fields, **bad}
    with pytest.raises(InvalidParameterError, match=message):
        kind(*broken.values())
    with pytest.raises(InvalidParameterError, match=message):
        kind(**broken)
