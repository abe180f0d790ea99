"""The core model's instruction checks: illegal yields raise.

Each case runs a one-core machine whose single operation yields a
scripted instruction sequence on its transactional body and on its
fallback path; the core must reject the illegal instruction with a
:class:`SimulationError` rather than carry on.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError, SimulationError
from repro.htm import Machine, MachineParams, NoDelay
from repro.htm.isa import CAS, AbortTx, AcquireX, Compute, Read, Write
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


def run_script(body, fallback=None, *, max_retries: int = 8):
    machine = Machine(
        MachineParams(n_cores=1, max_retries=max_retries), lambda i: NoDelay()
    )
    workload = ScriptedWorkload(body, fallback)
    machine.load(workload, seed=1)
    machine.run(10_000.0)
    return machine


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


def test_acquire_from_body_rejected():
    with pytest.raises(SimulationError, match="AcquireX outside commit phase"):
        run_script([Write(8, 1), AcquireX(8)])


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
