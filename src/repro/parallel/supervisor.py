"""Supervised worker pool: the one way work reaches another process.

Whole experiments (``python -m repro``, ``repro ablate``) and the
shards inside one (trial shards, sweep cells, lint files) all run
through :class:`SupervisedPool`:

* **In-parent rule** — when at most one worker would be busy (``jobs ==
  1`` or a single task) and no chaos plan is armed, :meth:`~SupervisedPool.
  run` executes the tasks in this process.  With ``jobs > 1`` the lone
  experiment gets the pool itself as ``pool=``, so its shards still fan
  out.
* **Warm pool** — otherwise up to ``jobs`` worker processes are spawned
  *once* per run and then fed tasks over duplex pipes until the queue
  drains.
* **Heartbeats** — each worker runs a tiny side thread that pings the
  parent every ``HEARTBEAT_INTERVAL`` seconds; a worker whose beats
  stop (SIGSTOP, deadlocked interpreter, dead machine slot) is declared
  hung after ``heartbeat_timeout`` and killed.
* **Crash supervision** — a worker that dies (pipe EOF) has its exit
  status classified (``signal:SIGKILL`` / ``exit:3`` / ``clean``), its
  in-flight task re-dispatched to a fresh worker with exponential
  backoff, at most ``max_task_reexecutions`` times.  Only a dead worker
  is retried: a task body is a pure function of its arguments and seed,
  so re-running one after an exception would recompute the exception.
* **Degradation ladder** — dead workers are replaced while the
  pool-wide ``max_worker_restarts`` budget lasts; when the pool empties
  with work remaining, the supervisor runs the rest *serially in the
  parent* (``degraded_to_serial``) — a chaotic host can slow a run
  down, never wedge or lose it.
* **Ordered results** — ``run`` returns outcomes in submission order and
  :meth:`~SupervisedPool.starmap` returns results in task order, no
  matter which worker finished first.  With per-shard ``SeedSequence``
  streams (:func:`repro.rngutil.spawn_streams`) this makes every sharded
  computation bit-identical for a fixed ``(seed, n_shards)`` and
  invariant to ``--jobs``.

Determinism: supervision decides only *where and how often* a task body
executes; the body itself is :func:`repro.experiments.run_experiment`
(or a module-level shard function) with a fixed seed, so re-executed
tasks produce byte-identical rows and the chaos CI gate can diff a
SIGKILL-riddled run against a fault-free one.  Supervision events
(``worker_crashed``, ``worker_restarted``, ``degraded_to_serial``) go
to the bus that is active when the pool runs, never into the
per-experiment captures of worker processes.  Functions handed to
``starmap`` must be module-level (picklable) and take their seed or
stream as an argument; CI's ``--jobs 1`` vs ``4`` row diff checks it.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro import errors
from repro.obs import obs_active
from repro.obs.metrics import get_registry
from repro.obs.tracebus import NO_SIM_TIME, get_bus

__all__ = [
    "ExperimentTask",
    "ExperimentOutcome",
    "SupervisorStats",
    "SupervisedPool",
    "best_start_method",
    "classify_exit",
]

#: How often a worker's heartbeat thread pings the parent (seconds).
HEARTBEAT_INTERVAL = 0.2
#: Longest the parent waits on its workers' pipes before it checks
#: heartbeats and deadlines again (seconds).
POLL_INTERVAL = 0.05
#: Parent-side silence budget before a worker is declared hung.
DEFAULT_HEARTBEAT_TIMEOUT = 30.0
#: Re-executions of a task whose worker process died mid-flight.
DEFAULT_MAX_TASK_REEXECUTIONS = 2
#: Pool-wide budget of replacement worker processes.
DEFAULT_MAX_WORKER_RESTARTS = 8
#: First sleep before re-dispatching a crashed task (seconds); doubles
#: per re-execution.
REEXECUTION_BACKOFF = 0.05
#: First sleep before spawning a replacement worker (seconds); doubles
#: per restart.
RESTART_BACKOFF = 0.02


def best_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``.

    Fork keeps the parent's in-memory experiment registry (including
    test doubles registered at runtime) visible to workers; spawn-based
    workers can only run experiments importable from the module tree.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class ExperimentTask:
    """Everything a worker needs to run one experiment (picklable)."""

    exp_id: str
    quick: bool = False
    seed: int | None = None
    timeout: float | None = None
    cache_dir: str | None = None
    fingerprint: str | None = None
    overrides: dict = field(default_factory=dict)
    #: run under a fresh obs capture and ship the metric snapshot +
    #: trace events back alongside the result
    collect: bool = False

    def __call__(self, pool=None):
        """Run the experiment; ``pool`` serves its shards."""
        from repro.experiments.registry import run_experiment
        from repro.parallel.cache import ResultCache

        cache = (
            ResultCache(self.cache_dir, fingerprint=self.fingerprint)
            if self.cache_dir
            else None
        )
        return run_experiment(
            self.exp_id,
            quick=self.quick,
            seed=self.seed,
            timeout=self.timeout,
            cache=cache,
            pool=pool,
            **self.overrides,
        )


@dataclass(frozen=True)
class _Call:
    """One :meth:`SupervisedPool.starmap` item: ``fn(*args)``."""

    #: label for supervision messages and chaos draws
    exp_id: str
    fn: Callable
    args: tuple
    collect: bool = False

    def __call__(self, pool=None):
        return self.fn(*self.args)


@dataclass
class ExperimentOutcome:
    """What became of one dispatched experiment."""

    exp_id: str
    status: str  # "ok" | "failed" | "skipped"
    result: object | None = None  # ExperimentResult when status == "ok"
    error_type: str | None = None
    error: str | None = None
    elapsed_s: float = 0.0
    #: per-experiment observability (only with ``collect=True``):
    #: a MetricsRegistry snapshot and the worker's ObsEvent list
    metrics: dict | None = None
    events: list | None = None
    #: how the executing process ended when the run did not return
    #: normally: ``signal:SIGKILL``, ``exit:3``, ``clean``, ``timeout``,
    #: ``heartbeat_timeout`` — None for in-process results
    exit_cause: str | None = None
    #: total executions this task consumed (1 = no re-execution)
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SupervisorStats:
    """Aggregate supervision counters for one pool run."""

    worker_crashes: int = 0
    worker_restarts: int = 0
    task_reexecutions: int = 0
    heartbeat_timeouts: int = 0
    parent_kills: int = 0
    degraded_to_serial: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "worker_crashes": self.worker_crashes,
            "worker_restarts": self.worker_restarts,
            "task_reexecutions": self.task_reexecutions,
            "heartbeat_timeouts": self.heartbeat_timeouts,
            "parent_kills": self.parent_kills,
            "degraded_to_serial": self.degraded_to_serial,
        }

    def any(self) -> bool:
        return any(self.as_dict().values())


def classify_exit(exitcode: int | None) -> str:
    """Human-meaningful cause from a reaped process's exit code."""
    if exitcode is None:
        return "unknown"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = str(-exitcode)
        return f"signal:{name}"
    if exitcode == 0:
        return "clean"
    return f"exit:{exitcode}"


def _execute_task(task, pool=None, catch=BaseException) -> tuple[str, object]:
    """Run one task body; every outcome becomes data, never a raise.

    Shared by the worker loop and the parent, so both produce
    indistinguishable payloads.  A worker catches everything (it must
    never die silently); the parent passes ``catch=Exception`` so
    Ctrl-C still stops it.
    """
    from contextlib import nullcontext

    from repro.obs import capture

    try:
        with (capture() if task.collect else nullcontext()) as cap:
            result = task(pool)
        if cap is not None:
            return "ok", (result, cap.snapshot(), cap.events)
        return "ok", result
    except BaseException as exc:  # process/serialization boundary: the supervisor re-raises this as a failure outcome; a worker must never die silently
        if not isinstance(exc, catch):
            raise
        return "failed", (type(exc).__name__, str(exc))


def _outcome(task, attempt, status, payload, elapsed) -> ExperimentOutcome:
    """An :class:`ExperimentOutcome` from an :func:`_execute_task` payload."""
    if status == "ok":
        metrics = events = None
        result = payload
        if task.collect:
            result, metrics, events = payload
        return ExperimentOutcome(
            task.exp_id,
            "ok",
            result=result,
            elapsed_s=elapsed,
            metrics=metrics,
            events=events,
            attempts=attempt + 1,
        )
    error_type, error = payload
    return ExperimentOutcome(
        task.exp_id,
        "failed",
        error_type=error_type,
        error=error,
        elapsed_s=elapsed,
        attempts=attempt + 1,
    )


def _call_error(outcome: ExperimentOutcome) -> errors.ReproError:
    """The exception a failed ``starmap`` call raises in the caller:
    :mod:`repro.errors` classes keep their type, anything else becomes
    an :class:`~repro.errors.ExperimentError` naming it."""
    cls = getattr(errors, outcome.error_type or "", None)
    if isinstance(cls, type) and issubclass(cls, errors.ReproError):
        return cls(outcome.error)
    return errors.ExperimentError(f"{outcome.error_type}: {outcome.error}")


def _pool_worker(conn, worker_id: int, chaos_config: dict | None) -> None:
    """Persistent worker loop: recv task, run, send result, repeat.

    A side thread heartbeats over the same pipe (send-locked) so the
    parent can tell "busy computing" from "frozen or gone".  Chaos, when
    armed, fires at the seeded injection point *before* the task body —
    modeling a worker lost between dispatch and completion.
    """
    from repro.faults.chaos import ChaosPlan, apply_worker_chaos

    chaos = ChaosPlan.from_dict(chaos_config) if chaos_config else None
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(msg) -> bool:
        with send_lock:
            try:
                conn.send(msg)
                return True
            except Exception:  # simlint: disable=ERR002 -- unpicklable payload or vanished parent: the caller downgrades to a reportable failure
                return False

    def beat() -> None:
        n = 0
        while not stop.wait(HEARTBEAT_INTERVAL):
            n += 1
            if not send(("hb", worker_id, n)):
                return

    threading.Thread(target=beat, name="heartbeat", daemon=True).start()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:
                break
            task, attempt = msg
            if chaos is not None:
                apply_worker_chaos(chaos, task.exp_id, attempt)
            start = time.monotonic()
            status, payload = _execute_task(task)
            elapsed = time.monotonic() - start
            if not send(("done", status, payload, elapsed)):
                # unpicklable result: report the failure instead
                if not send(
                    (
                        "done",
                        "failed",
                        ("ExperimentError", "result could not be pickled"),
                        elapsed,
                    )
                ):
                    break
    finally:
        stop.set()
        conn.close()


@dataclass
class _Worker:
    proc: object
    conn: object
    worker_id: int
    last_beat: float
    #: (index, task, attempt, dispatch time) while busy, else None
    inflight: tuple | None = None


class SupervisedPool:
    """Spawn-per-run worker pool with crash/hang supervision.

    :meth:`run` executes a list of tasks (:class:`ExperimentTask`) and
    :meth:`starmap` maps a module-level function over argument tuples;
    both follow the in-parent rule in the module docstring.
    """

    def __init__(
        self,
        jobs: int,
        *,
        max_task_reexecutions: int = DEFAULT_MAX_TASK_REEXECUTIONS,
        max_worker_restarts: int = DEFAULT_MAX_WORKER_RESTARTS,
        timeout: float | None = None,
        kill_grace: float = 5.0,
        heartbeat_timeout: float | None = DEFAULT_HEARTBEAT_TIMEOUT,
        chaos=None,
    ) -> None:
        if jobs < 1:
            raise errors.InvalidParameterError(f"need jobs >= 1, got {jobs}")
        if max_task_reexecutions < 0:
            raise errors.InvalidParameterError(
                "max_task_reexecutions must be >= 0, got "
                f"{max_task_reexecutions}"
            )
        if max_worker_restarts < 0:
            raise errors.InvalidParameterError(
                f"max_worker_restarts must be >= 0, got {max_worker_restarts}"
            )
        self.jobs = jobs
        self.max_task_reexecutions = max_task_reexecutions
        self.max_worker_restarts = max_worker_restarts
        self.timeout = timeout
        self.kill_grace = kill_grace
        self.heartbeat_timeout = heartbeat_timeout
        self.chaos = chaos
        self._ctx = multiprocessing.get_context(best_start_method())
        self.stats = SupervisorStats()
        self._workers: dict = {}  # conn -> _Worker
        self._next_worker_id = 0
        self._restarts_used = 0

    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(
                child_conn,
                self._next_worker_id,
                self.chaos.to_dict() if self.chaos is not None else None,
            ),
            name=f"repro-worker-{self._next_worker_id}",
        )
        proc.start()
        child_conn.close()  # parent keeps only its end
        self._workers[parent_conn] = _Worker(
            proc, parent_conn, self._next_worker_id, time.monotonic()
        )
        self._next_worker_id += 1

    def _reap(self, worker: _Worker, *, kill: bool = False) -> int | None:
        """Remove a worker from the pool and collect its exit code."""
        self._workers.pop(worker.conn, None)
        if kill and worker.proc.is_alive():
            worker.proc.kill()  # SIGKILL works on SIGSTOPped processes too
        worker.proc.join()
        worker.conn.close()
        return worker.proc.exitcode

    def _maybe_replace(self, work_remaining: bool) -> None:
        """Spawn a replacement worker inside the restart budget."""
        if not work_remaining or len(self._workers) >= self.jobs:
            return
        if self._restarts_used >= self.max_worker_restarts:
            return  # budget spent: the pool shrinks (ladder to serial)
        delay = RESTART_BACKOFF * 2**self._restarts_used
        self._restarts_used += 1
        time.sleep(min(delay, 1.0))
        self._spawn()
        self.stats.worker_restarts += 1
        get_registry().counter("worker_restarts").inc()
        get_bus().emit(
            NO_SIM_TIME,
            "worker_restarted",
            -1,
            restarts_used=self._restarts_used,
            budget=self.max_worker_restarts,
        )

    def _shutdown(self) -> None:
        """Stop every worker: idle ones are told to exit, busy ones (a
        run cut short by an exception) are killed."""
        for worker in list(self._workers.values()):
            if worker.inflight is None:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in list(self._workers.values()):
            if worker.inflight is None:
                worker.proc.join(1.0)
            self._reap(worker, kill=True)

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: list,
        *,
        on_outcome=None,
        stop_on_failure: bool = False,
    ) -> list[ExperimentOutcome]:
        """Execute ``tasks``; return their outcomes in submission order.

        ``on_outcome`` fires in completion order, so a caller can report
        each result as it lands.  With ``stop_on_failure`` a
        failure stops launching new work; running tasks finish and
        unstarted ones come back ``"skipped"``.  Workers are torn down
        on every exit path, including an exception raised here.
        """
        self.stats = SupervisorStats()
        outcomes: list[ExperimentOutcome | None] = [None] * len(tasks)
        failed = False

        def record(index: int, outcome: ExperimentOutcome) -> None:
            nonlocal failed
            outcomes[index] = outcome
            if outcome.status == "failed":
                failed = True
            if on_outcome is not None:
                on_outcome(outcome)

        def stopped() -> bool:
            return stop_on_failure and failed

        try:
            if self.chaos is None and (self.jobs == 1 or len(tasks) <= 1):
                self._in_parent(
                    [(i, task, 0) for i, task in enumerate(tasks)],
                    record,
                    stopped,
                    pool=self if self.jobs > 1 else None,
                )
            else:
                self._supervise(tasks, record, stopped)
        finally:
            self._shutdown()
        return [
            outcome or ExperimentOutcome(task.exp_id, "skipped")
            for outcome, task in zip(outcomes, tasks)
        ]

    def starmap(self, fn: Callable, tasks: Iterable[Sequence]) -> list:
        """``[fn(*args) for args in tasks]``, fanned out over the workers.

        Results come back in task order.  Calls run inline when at most
        one worker would be busy.  A failed call raises here, after no
        result was folded: :mod:`repro.errors` classes keep their type,
        any other becomes an :class:`~repro.errors.ExperimentError`.  With
        observability active each call runs under a fresh capture in its
        worker, and the metric snapshots and events are folded into this
        process's registry and bus in task order — so ``--jobs`` cannot
        reorder or lose a count or event relative to the inline path.
        """
        calls = [tuple(args) for args in tasks]
        if self.jobs == 1 or len(calls) <= 1:
            return [fn(*args) for args in calls]
        collect = obs_active()
        name = getattr(fn, "__name__", "call")
        outer_stats = self.stats  # a nested run must not clobber them
        try:
            outcomes = self.run(
                [
                    _Call(f"{name}[{i}]", fn, args, collect)
                    for i, args in enumerate(calls)
                ],
                stop_on_failure=True,
            )
        finally:
            self.stats = outer_stats
        for outcome in outcomes:
            if not outcome.ok:
                raise _call_error(outcome)
        if collect:
            registry, bus = get_registry(), get_bus()
            for outcome in outcomes:
                registry.absorb(outcome.metrics)
                for event in outcome.events:
                    bus.publish(event)
        return [outcome.result for outcome in outcomes]

    # ------------------------------------------------------------------
    def _in_parent(self, items, record, stopped, pool=None) -> None:
        """Run ``(index, task, attempt)`` items serially in this process."""
        for index, task, attempt in items:
            if stopped():
                return
            start = time.monotonic()
            status, payload = _execute_task(task, pool, Exception)
            record(
                index,
                _outcome(task, attempt, status, payload, time.monotonic() - start),
            )

    def _supervise(self, tasks, record, stopped) -> None:
        """The worker path of :meth:`run`."""
        pending: deque = deque((i, task, 0) for i, task in enumerate(tasks))
        delayed: list = []  # (ready_at, index, task, attempt) crash requeues

        def work_remaining() -> bool:
            return bool(pending or delayed)

        def crash_failure(index, task, attempt, exitcode, cause, elapsed) -> None:
            record(
                index,
                ExperimentOutcome(
                    task.exp_id,
                    "failed",
                    error_type="ExperimentError",
                    error=(
                        f"worker for {task.exp_id!r} exited without a "
                        f"result (exit code {exitcode}, cause {cause}, "
                        f"attempt {attempt + 1} of "
                        f"{self.max_task_reexecutions + 1})"
                    ),
                    elapsed_s=elapsed,
                    exit_cause=cause,
                    attempts=attempt + 1,
                ),
            )

        def on_worker_death(worker: _Worker, *, cause: str | None = None, kill: bool = False) -> None:
            now = time.monotonic()
            exitcode = self._reap(worker, kill=kill)
            cause = cause or classify_exit(exitcode)
            self.stats.worker_crashes += 1
            get_registry().counter("worker_crashes").inc()
            get_bus().emit(
                NO_SIM_TIME,
                "worker_crashed",
                -1,
                worker=worker.worker_id,
                cause=cause,
                exp_id=worker.inflight[1].exp_id if worker.inflight else None,
            )
            if worker.inflight is not None:
                index, task, attempt, start = worker.inflight
                if attempt < self.max_task_reexecutions and not stopped():
                    self.stats.task_reexecutions += 1
                    get_registry().counter("task_reexecutions").inc()
                    delayed.append(
                        (
                            now + REEXECUTION_BACKOFF * 2**attempt,
                            index,
                            task,
                            attempt + 1,
                        )
                    )
                else:
                    crash_failure(
                        index, task, attempt, exitcode, cause, now - start
                    )
            self._maybe_replace(work_remaining())

        # warm pool: spawned once, fed until the queue drains
        for _ in range(min(self.jobs, len(tasks))):
            self._spawn()

        while pending or delayed or any(
            w.inflight is not None for w in self._workers.values()
        ):
            now = time.monotonic()
            if delayed:
                for entry in [d for d in delayed if d[0] <= now]:
                    delayed.remove(entry)
                    pending.append(entry[1:])
            if stopped():
                pending.clear()
                delayed.clear()
            if not self._workers:
                if work_remaining():
                    self._degrade(pending, delayed, record, stopped)
                break
            for worker in list(self._workers.values()):
                if not pending:
                    break
                if worker.inflight is None:
                    index, task, attempt = pending.popleft()
                    try:
                        worker.conn.send((task, attempt))
                    except (BrokenPipeError, OSError):
                        pending.appendleft((index, task, attempt))
                        continue  # the EOF path below reaps it
                    worker.inflight = (index, task, attempt, time.monotonic())
            ready = multiprocessing.connection.wait(
                list(self._workers), timeout=POLL_INTERVAL
            )
            now = time.monotonic()
            for conn in ready:
                worker = self._workers.get(conn)
                if worker is None:
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    on_worker_death(worker)
                    continue
                worker.last_beat = now
                if msg[0] == "done" and worker.inflight is not None:
                    _, status, payload, elapsed = msg
                    index, task, attempt, _start = worker.inflight
                    worker.inflight = None
                    record(
                        index, _outcome(task, attempt, status, payload, elapsed)
                    )
            now = time.monotonic()
            self._enforce_timeouts(now, record, work_remaining)
            self._enforce_heartbeats(now, on_worker_death, work_remaining)

    def _enforce_timeouts(self, now, record, work_remaining) -> None:
        """Parent-side backstop: kill workers past timeout + kill_grace.

        A parent kill is a budget decision, exactly like the in-worker
        watchdog — the task is *not* re-executed.
        """
        if self.timeout is None:
            return
        budget = self.timeout + self.kill_grace
        for worker in list(self._workers.values()):
            if worker.inflight is None:
                continue
            index, task, attempt, start = worker.inflight
            if now - start <= budget:
                continue
            worker.inflight = None  # consumed: do not requeue
            self._reap(worker, kill=True)
            self.stats.parent_kills += 1
            get_registry().counter("worker_parent_kills").inc()
            get_bus().emit(
                NO_SIM_TIME,
                "worker_crashed",
                -1,
                worker=worker.worker_id,
                cause="timeout",
                exp_id=task.exp_id,
            )
            record(
                index,
                ExperimentOutcome(
                    task.exp_id,
                    "failed",
                    error_type="ExperimentTimeoutError",
                    error=(
                        f"experiment {task.exp_id!r} exceeded its "
                        f"{self.timeout:g}s wall-clock budget; "
                        f"worker process killed by the parent "
                        f"(in-worker watchdog did not fire)"
                    ),
                    elapsed_s=now - start,
                    exit_cause="timeout",
                    attempts=attempt + 1,
                ),
            )
            self._maybe_replace(work_remaining())

    def _enforce_heartbeats(self, now, on_worker_death, work_remaining) -> None:
        """Declare silent workers hung; their task is re-executed."""
        if self.heartbeat_timeout is None:
            return
        for worker in list(self._workers.values()):
            if now - worker.last_beat <= self.heartbeat_timeout:
                continue
            if worker.inflight is None and not work_remaining():
                continue  # idle pool winding down: nothing depends on it
            self.stats.heartbeat_timeouts += 1
            get_registry().counter("worker_heartbeat_timeouts").inc()
            on_worker_death(worker, cause="heartbeat_timeout", kill=True)

    def _degrade(self, pending, delayed, record, stopped) -> None:
        """The last rung: run everything left serially in the parent.

        Reached only when the restart budget is spent and no worker
        survives.  Chaos does not apply here (it targets workers), so a
        degraded run always terminates.
        """
        self.stats.degraded_to_serial = 1
        get_registry().counter("degraded_to_serial").inc()
        remaining = list(pending) + [d[1:] for d in sorted(delayed, key=lambda d: d[0])]
        pending.clear()
        delayed.clear()
        get_bus().emit(
            NO_SIM_TIME,
            "degraded_to_serial",
            -1,
            remaining=len(remaining),
            restarts_used=self._restarts_used,
        )
        self._in_parent(remaining, record, stopped)
