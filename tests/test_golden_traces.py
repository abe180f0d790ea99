"""Golden-trace regression tests: canonical event streams, byte for byte.

Each case replays a small, fully seeded scenario under an observability
capture and compares the canonical JSONL rendering of its event stream
against a checked-in golden file in ``tests/golden/``.  Because the
serialization is canonical (sorted keys, compact separators), *any*
drift — event ordering, schema fields, simulator timing, policy
decisions — shows up as a byte diff.

When a change is intentional, regenerate the goldens and review the
diff like any other source change::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-golden
"""

from __future__ import annotations

import difflib
import pathlib

import pytest

from repro.distributions import GeometricLengths
from repro.htm import (
    HybridDelay,
    Machine,
    MachineParams,
    RandDelay,
    RequestorAbortsDelay,
)
from repro.htm.interconnect import MeshTopology
from repro.obs import capture
from repro.obs.tracebus import jsonl_line
from repro.sim.engine import EventQueue
from repro.synthetic import SyntheticHarness
from repro.workloads import (
    CounterWorkload,
    ListSetWorkload,
    QueueWorkload,
    StackWorkload,
    TxAppWorkload,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def render(events) -> str:
    return "".join(jsonl_line(event) + "\n" for event in events)


def fig2_cell_events():
    """One Figure-2 synthetic cell: geometric lengths, B=2000, mu=500."""
    with capture() as cap:
        SyntheticHarness(2000.0, 500.0).run(GeometricLengths(500.0), 4000, 3)
    return cap.events


def fig3_cell_events():
    """One Figure-3 machine cell: 2 cores, randomized policy, counter."""
    with capture() as cap:
        machine = Machine(MachineParams(n_cores=2), lambda i: RandDelay())
        machine.load(CounterWorkload(), seed=3)
        machine.run(12_000.0)
    return cap.events


CASES = {
    "fig2_geometric_cell": fig2_cell_events,
    "fig3_counter_cell": fig3_cell_events,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name, request):
    golden = GOLDEN_DIR / f"{name}.jsonl"
    text = render(CASES[name]())
    assert text, f"scenario {name} produced no events"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_text(text)
        pytest.skip(f"golden updated: {golden}")
    assert golden.exists(), (
        f"missing {golden}; generate it with --update-golden"
    )
    expected = golden.read_text()
    if text != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                text.splitlines(),
                fromfile=str(golden),
                tofile="current",
                lineterm="",
                n=1,
            )
        )
        pytest.fail(
            f"trace drifted from golden (intentional? rerun with "
            f"--update-golden and review):\n{diff[:4000]}"
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_scenarios_are_reproducible(name):
    """The golden scenarios themselves are deterministic run-to-run."""
    assert render(CASES[name]()) == render(CASES[name]())


# -- pinned machine digests ---------------------------------------------------
# Digests and event counts of ten machine cells, recorded once and
# compared across commits: a change that should not move the simulation
# (a kernel or cache rewrite, say) must leave all of them unchanged.
# The golden traces above cover only a 2-core counter cell; these cover
# the benchmark's 8-core Figure 3 cell, the same machine under
# fault-injected spurious aborts (whose cancelled timers compact the
# event heap inside run()), a stack whose low retry budget drives
# operations through the CAS/Fence fallback path, the txapp cell under
# the requestor-aborts and hybrid resolutions (NACKs and the
# requestor-wins backstop timer), a queue on a mesh with jittered
# links (non-uniform and randomly delayed hops), the txapp cell with
# jittered links on the default fixed-latency network, the txapp cell on a
# 4-set x 2-way L1 (evictions, writebacks and capacity aborts), on a
# 4-set x 4-way L1 whose associativity a fault plan shrinks by two ways
# in a fifth of the transactions, and a hit-dominated linked-list set
# on the default L1.  Like the goldens they
# assume seeded NumPy streams and float arithmetic are stable across
# Python and NumPy versions (recorded under CPython 3.11).
PINNED = {
    "txapp_8core": (
        "5a34acd9944ed4377d2d6fd1dc01b4a35553a8517d2268e4757ba130781d054e",
        53184,
    ),
    "txapp_8core_spurious": (
        "18ca137cb18bfb6a4d09bdf8f3264ec5026ee8d672cca6b5087508166fe0fc77",
        26294,
    ),
    "stack_8core_fallback": (
        "89f0cc76d59c08978b99b03ccaac36b0fe9116028b110fbcb7e5a0eaaf4cb4bc",
        10404,
    ),
    "txapp_8core_requestor_aborts": (
        "c95072f9dd7cae7c45421cadc91a9c81e5d67859a3c89b54961336ddd813c8c7",
        25821,
    ),
    "txapp_8core_hybrid": (
        "b1bb6935782ff182272a00b004ea4d3e801e6648029892fce99dee375b315d85",
        26332,
    ),
    "queue_8core_mesh_jitter": (
        "a416fedb9d8d47fe634a68dcc42b74cee175151c33cb99d8b860fa50efd45bd6",
        14181,
    ),
    "txapp_8core_jitter": (
        "12d577920067772029c8314548adde01b57d695de67243d165d957dee833ad7b",
        26297,
    ),
    "txapp_8core_small_l1": (
        "1d528faaf3f1fc4c79ea782eed9a2588456c43585e40a451094207baf1dab0de",
        11212,
    ),
    "txapp_8core_capacity_shrink": (
        "b6c09d690c3ef275d100427f104594146fc5501f69b39a565dbac0a6f774fa4c",
        25233,
    ),
    "listset_8core": (
        "151cadd3c2db309754133efbbaf37826d779c19cf3e73fe312394293072e9256",
        30915,
    ),
}

#: the resolution policy of each txapp cell (RandDelay when absent)
PINNED_POLICIES = {
    "txapp_8core_requestor_aborts": RequestorAbortsDelay,
    "txapp_8core_hybrid": HybridDelay,
}


def pinned_cell(name: str):
    """Build, run and verify one pinned cell; returns (machine, stats)."""
    params = MachineParams(n_cores=8)
    topology = None
    if name == "stack_8core_fallback":
        params = MachineParams(n_cores=8, max_retries=2)
        workload, horizon, faults = StackWorkload(), 20_000.0, None
    elif name == "queue_8core_mesh_jitter":
        workload, horizon, topology = QueueWorkload(), 30_000.0, MeshTopology(8)
        faults = {"link_jitter_rate": 0.05, "link_jitter_cycles": 8}
    elif name == "listset_8core":
        workload, horizon, faults = ListSetWorkload(), 30_000.0, None
    else:
        workload = TxAppWorkload(work_cycles=100)
        if name == "txapp_8core":
            horizon, faults = 60_000.0, None
        elif name == "txapp_8core_spurious":
            horizon, faults = 30_000.0, {"spurious_abort_rate": 1e-4}
        elif name == "txapp_8core_jitter":
            horizon = 30_000.0
            faults = {"link_jitter_rate": 0.05, "link_jitter_cycles": 8}
        elif name == "txapp_8core_small_l1":
            params = MachineParams(n_cores=8, l1_sets=4, l1_assoc=2)
            horizon, faults = 30_000.0, None
        elif name == "txapp_8core_capacity_shrink":
            params = MachineParams(n_cores=8, l1_sets=4, l1_assoc=4)
            horizon = 30_000.0
            faults = {"capacity_shrink_prob": 0.2, "capacity_ways_lost": 2}
        else:
            horizon, faults = 30_000.0, None
    policy = PINNED_POLICIES.get(name, RandDelay)
    machine = Machine(
        params, lambda i: policy(), topology=topology, faults=faults
    )
    machine.load(workload, seed=3)
    stats = machine.run(horizon)
    workload.verify(machine)
    machine.check_invariants()
    return machine, stats


@pytest.mark.parametrize("name", sorted(PINNED))
def test_machine_digest_pinned(name, monkeypatch):
    compactions = []
    compact = EventQueue._compact

    def counting_compact(queue):
        compactions.append(queue.heap_size())
        compact(queue)

    monkeypatch.setattr(EventQueue, "_compact", counting_compact)
    machine, stats = pinned_cell(name)
    assert (stats.digest(), machine.sim.events_fired) == PINNED[name]
    # each cell still exercises the path it is pinned for
    if name == "txapp_8core_spurious":
        assert len(compactions) == 14
    if name == "stack_8core_fallback":
        assert stats.total("fallback_ops") == 211
    if name == "txapp_8core_requestor_aborts":
        assert stats.total("nacks_sent") == 11
    if name == "txapp_8core_hybrid":
        assert stats.total("nacks_sent") == 10
    if name == "queue_8core_mesh_jitter":
        jitter = machine.metrics.counter_values("fault_link_jitter")
        assert jitter == {"fault_link_jitter_events": 398}
        assert stats.total("fallback_ops") == 10
    if name == "txapp_8core_jitter":
        jitter = machine.metrics.counter_values("fault_link_jitter")
        assert jitter["fault_link_jitter_events"] > 0
    if name == "txapp_8core_small_l1":
        assert stats.total("writebacks") == 377
        assert stats.abort_reasons()["capacity"] == 158
        assert stats.total("fallback_ops") == 23
    if name == "txapp_8core_capacity_shrink":
        assert stats.fault_counts() == {"capacity_shrinks": 205}
        assert stats.total("writebacks") == 355
        assert stats.abort_reasons()["capacity"] == 12
    if name == "listset_8core":
        assert stats.total("l1_hits") == 13_986
        assert stats.total("l1_misses") == 4_482


@pytest.mark.parametrize(
    "name",
    ["txapp_8core", "listset_8core", "queue_8core_mesh_jitter",
     "txapp_8core_spurious"],
)
def test_queued_behind_matches_full_scan(name, monkeypatch):
    """At every chain-size decision, each core's count of requests queued
    behind its in-service request equals a full scan of the directory."""
    seen = []
    chain_size = Machine.chain_size

    def checking_chain_size(machine, holder):
        scan = dict.fromkeys(range(machine.params.n_cores), 0)
        for entry in machine.directory.entries.values():
            if entry.busy and entry.queue:
                scan[entry.queue[0].core] += len(entry.queue) - 1
        for waiter in machine.transitive_waiters(holder):
            assert machine.queued_behind(waiter) == scan[waiter]
        assert {core: machine.queued_behind(core) for core in scan} == scan
        seen.append(sum(scan.values()))
        return chain_size(machine, holder)

    monkeypatch.setattr(Machine, "chain_size", checking_chain_size)
    pinned_cell(name)
    assert seen and any(seen), "the cell never queued behind a waiter"
