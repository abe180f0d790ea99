"""PhaseProfiler: attaching it observes a machine run without changing it."""

from __future__ import annotations

from repro.htm import Machine, MachineParams, RandDelay
from repro.obs.profile import PhaseProfiler
from repro.workloads import TxAppWorkload


def run_cell(profiler: PhaseProfiler | None = None) -> tuple[str, int]:
    """A 4-core transactional-app cell with a warm-up phase."""
    machine = Machine(MachineParams(n_cores=4), lambda i: RandDelay())
    workload = TxAppWorkload(work_cycles=100)
    machine.load(workload, seed=5)
    if profiler is not None:
        machine.attach_profiler(profiler)
    stats = machine.run(20_000.0, warmup_cycles=5_000.0)
    workload.verify(machine)
    machine.check_invariants()
    return stats.digest(), machine.sim.events_fired


def test_profiling_is_pure_observation():
    profiler = PhaseProfiler()
    digest, fired = run_cell(profiler)
    assert (digest, fired) == run_cell()
    # every fired event went through the profiler, under some label
    assert sum(count for count, _ in profiler.handlers.values()) == fired
    assert set(profiler.phases) == {"warmup", "measure", "drain"}
    assert 0.0 < profiler.occupancy() <= 1.0

