"""Per-layer tracing for the end-to-end benchmark.

Everything here observes the program from outside, through its public
classes: :class:`LayerTracer` replaces public methods of each layer with
timing wrappers for the length of a ``with tracer.installed():`` block
and puts the originals back afterwards, and it attaches itself to every
machine it sees through ``Machine.attach_profiler`` so that the kernel
routes each fired event through :meth:`LayerTracer.record_fire`.

Spans nest on one stack.  A span's *self time* is its duration minus
the part covered by its child spans, so the self times of all layers add
up to the traced time with nothing counted twice:

* the kernel loop (``loop_enter`` .. ``loop_exit``) is an ``engine``
  span; every fired event is a child span charged to the layer of the
  module that defines ``event.handler``;
* ``Simulator.at/after`` and ``EventQueue.push/cancel`` are ``engine``
  spans wherever they are called from, so scheduling cost lands on the
  kernel and not on the caller;
* work a layer does inside a callback it received from another layer
  (the controller's ``on_grant`` closure run by the directory, say) is
  charged to the calling layer unless it calls a wrapped method.

Span totals stay in memory; nothing is written while a run is traced.
The serve path is asynchronous, and coroutine spans would interleave on
one stack, so ``DecisionService.submit`` is not wrapped: service
plumbing is the traced wall time minus the policy and estimator self
time (see ``bench.py``).
"""

from __future__ import annotations

import contextlib
import functools
import time
from types import FunctionType

__all__ = ["LAYERS", "LayerTracer", "RunCollector", "layer_of_module"]

#: Module or package -> layer.
MODULE_LAYERS = {
    "repro.sim.engine": "engine",
    "repro.htm.core_model": "core_model",
    "repro.htm.controller": "controller",
    "repro.htm.cache": "cache",
    "repro.htm.directory": "directory",
    "repro.htm.machine": "waits_for",
    "repro.htm.conflict_policy": "conflict_policy",
    "repro.htm.profiler": "conflict_policy",
    "repro.workloads": "workloads",
    "repro.core.estimators": "estimators",
    "repro.faults": "faults",
}

#: Every layer a span can be charged to (``unknown`` must stay empty).
LAYERS = tuple(dict.fromkeys(MODULE_LAYERS.values())) + ("unknown",)


def layer_of_module(module: str | None) -> str:
    """The layer owning ``module`` or its nearest enclosing package
    (``unknown`` when none does)."""
    name = module or ""
    while name:
        if name in MODULE_LAYERS:
            return MODULE_LAYERS[name]
        name = name.rpartition(".")[0]
    return "unknown"


def _public_functions(cls) -> list[str]:
    """Names of the plain functions ``cls`` itself defines publicly."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, FunctionType)
    ]


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class _Patcher:
    """Swaps class attributes and remembers the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class RunCollector:
    """Counts what every ``Machine.run`` and ``mc.run_trials`` call did.

    This is the only instrumentation of an untraced pass: two clock
    reads per machine run or trial batch, which is what the batch
    workload needs for its HTM and Monte-Carlo shares and for
    ``engine.events_per_s``.  A :class:`LayerTracer` passed as
    ``tracer`` is attached to every machine for the length of its run;
    ``after`` is called, untimed, when each run or trial batch returns.
    """

    #: MachineStats totals summed over runs
    STAT_TOTALS = ("ops_completed", "fallback_ops", "tx_committed",
                   "tx_aborted", "l1_hits", "l1_misses")

    def __init__(self, tracer: "LayerTracer | None" = None,
                 after=None) -> None:
        self.tracer = tracer
        self.after = after
        self.run_s = 0.0
        self.mc_s = 0.0
        self.events = 0
        self.totals = dict.fromkeys(self.STAT_TOTALS, 0)
        self.grace = {"grace_granted": 0, "grace_expired": 0}

    @contextlib.contextmanager
    def installed(self):
        from repro.htm.machine import Machine
        from repro.sim import mc

        patcher = _Patcher()
        patcher.replace(Machine, "run", self._wrap_run(Machine.run))
        patcher.replace(mc, "run_trials", self._wrap_trials(mc.run_trials))
        try:
            yield self
        finally:
            patcher.restore()

    def _wrap_run(self, run):
        perf = time.perf_counter

        @functools.wraps(run)
        def traced_run(machine, *args, **kwargs):
            attach = self.tracer is not None and machine.profiler is None
            if attach:
                machine.attach_profiler(self.tracer)
            events0 = machine.sim.events_fired
            t0 = perf()
            try:
                stats = run(machine, *args, **kwargs)
            finally:
                self.run_s += perf() - t0
                if attach:
                    machine.attach_profiler(None)
            self.events += machine.sim.events_fired - events0
            for name in self.STAT_TOTALS:
                self.totals[name] += stats.total(name)
            for name, value in machine.metrics.counter_values("grace_").items():
                if name in self.grace:
                    self.grace[name] += value
            if self.after is not None:
                self.after()
            return stats

        return traced_run

    def _wrap_trials(self, run_trials):
        perf = time.perf_counter

        @functools.wraps(run_trials)
        def traced_trials(*args, **kwargs):
            t0 = perf()
            try:
                result = run_trials(*args, **kwargs)
            finally:
                self.mc_s += perf() - t0
            if self.after is not None:
                self.after()
            return result

        return traced_trials


class LayerTracer:
    """Self time and call counts per layer, from wrapped public methods.

    Also implements the profiler protocol ``Machine.attach_profiler``
    expects (``phase``, ``loop_enter``, ``loop_exit``, ``record_fire``).
    """

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        #: wrapped ``Class.method`` -> calls
        self.calls: dict[str, int] = {}
        self.unknown_modules: set[str] = set()
        self.loop_s = 0.0
        # child-time accumulators of the open spans, innermost last
        self._open: list[float] = []
        self._loop_t0: list[float] = []
        self._module_layer: dict[str | None, str] = {}

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, patcher: _Patcher, owner, name: str, layer: str) -> None:
        key = f"{owner.__name__}.{name}"
        # counts add up over installs, like the self times
        self.calls.setdefault(key, 0)
        fn = vars(owner).get(name)
        if fn is None:  # renamed or removed: counted as never called
            return
        calls, self_s, open_ = self.calls, self.self_s, self._open
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                # _close, inlined: this runs on every wrapped call
                dt = perf() - t0
                self_s[layer] += dt - open_.pop()
                if open_:
                    open_[-1] += dt
                calls[key] += 1

        patcher.replace(owner, name, traced)

    def _close(self, layer: str, dt: float) -> None:
        """End the innermost span, ``dt`` long, charged to ``layer``."""
        self.self_s[layer] += dt - self._open.pop()
        if self._open:
            self._open[-1] += dt

    def _targets(self) -> list[tuple[type, str, str]]:
        """(class, method, layer) for every wrapped public method."""
        from repro.core.estimators import OnlineEstimator, WindowedMean
        from repro.htm.cache import L1Cache
        from repro.htm.conflict_policy import CyclePolicy
        from repro.htm.controller import CoreMemSystem
        from repro.htm.directory import Directory
        from repro.htm.machine import Machine
        from repro.sim.engine import EventQueue, Simulator
        from repro.workloads.base import Workload

        targets = [(L1Cache, name, "cache") for name in _public_functions(L1Cache)]
        targets += [(Directory, n, "directory")
                    for n in ("request", "writeback", "drop_sharer")]
        targets += [(CoreMemSystem, n, "controller")
                    for n in ("access", "handle_probe", "begin_tx",
                              "finalize_commit", "abort_tx")]
        targets += [(Machine, n, "waits_for")
                    for n in ("note_wait", "clear_wait", "chain_size",
                              "check_cycle")]
        targets += [(EventQueue, n, "engine") for n in ("push", "cancel")]
        targets += [(Simulator, n, "engine") for n in ("at", "after")]
        targets += [(cls, "decide", "conflict_policy")
                    for cls in _subclasses(CyclePolicy) if "decide" in vars(cls)]
        targets += [(cls, "next_op", "workloads")
                    for cls in _subclasses(Workload) if "next_op" in vars(cls)]
        for cls in (OnlineEstimator, WindowedMean):
            targets += [(cls, n, "estimators") for n in _public_functions(cls)]
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's public methods; restore them on exit."""
        patcher = _Patcher()
        try:
            for owner, name, layer in self._targets():
                self._wrap(patcher, owner, name, layer)
            yield self
        finally:
            patcher.restore()

    # -- the kernel's profiler protocol --------------------------------------
    def phase(self, name: str):
        return contextlib.nullcontext()

    def loop_enter(self) -> None:
        self._open.append(0.0)
        self._loop_t0.append(time.perf_counter())

    def loop_exit(self) -> None:
        dt = time.perf_counter() - self._loop_t0.pop()
        self.loop_s += dt
        self._close("engine", dt)

    def record_fire(self, label: str, fire) -> None:
        # ``fire`` is the event's bound ``fire``; charge its handler
        handler = getattr(getattr(fire, "__self__", None), "handler", fire)
        module = getattr(handler, "__module__", None)
        layer = self._module_layer.get(module)
        if layer is None:
            layer = self._module_layer[module] = layer_of_module(module)
            if layer == "unknown":
                self.unknown_modules.add(str(module))
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            fire()
        finally:
            self._close(layer, time.perf_counter() - t0)

    # -- views ---------------------------------------------------------------
    def calls_of(self, prefix: str = "", suffix: str = "") -> int:
        """Calls summed over the wrapped ``Class.method`` keys with this
        prefix and suffix (``"L1Cache."``, ``".decide"``)."""
        return sum(n for key, n in self.calls.items()
                   if key.startswith(prefix) and key.endswith(suffix))
