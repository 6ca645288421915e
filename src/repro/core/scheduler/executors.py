"""Campaign executors: the swappable "where do points actually run" layer.

:class:`~repro.core.scheduler.campaign.CampaignScheduler` owns *what*
runs (ordering, dedup, journal, requeue policy); an :class:`Executor`
owns *where* it runs. The contract is deliberately small — an executor
opens a session, the scheduler ``submit()``\\ s :class:`Task`\\ s into it
and pulls :class:`Outcome`\\ s back out in completion order — so new
backends (an MPI rank pool, a remote build farm) slot in without
touching campaign semantics. Two implementations ship:

:class:`SerialExecutor`
    Runs points inline on the scheduler's engine — the classic
    single-threaded sweep and the reference every backend must match.
:class:`ProcessExecutor`
    A pool of worker *processes*, each rebuilding a sibling engine from
    the parent's picklable :meth:`~repro.core.engine.ExecutionEngine.worker_spec`
    (which carries the device model class and its spec, so custom
    devices cross the boundary intact).
    Workers talk to the parent over duplex pipes (tasks down, results
    up); results cross the boundary in the journal's JSON record format,
    which is fingerprint-stable by construction. The pool *survives
    individual worker death*: a crashed worker's pipe hits EOF, the
    parent reaps it, respawns a replacement, and reports the in-flight
    point as a crash :class:`Outcome` for the scheduler to requeue.
    Worker engines cannot share the in-process build cache, so each
    process warms its own. Per-worker
    :class:`~repro.core.engine.EngineStats` deltas (build-cache hit and
    miss counts included) — and, when the parent has live obs sinks,
    buffered telemetry batches (:mod:`repro.obs.relay`) — ride home
    with *every point outcome*, so even a worker that later crashes has
    already banked everything but its in-flight point. Workers exit on
    their own when the campaign process dies.

Worker crashes are *injectable*: the ``worker_crash`` fault site
(:mod:`repro.faults`) is consulted once per ``(point, restarts)``
before a point runs. In the process backend a firing fault hard-kills
the worker with ``os._exit`` — no cleanup, a real death, exactly what a
segfaulting toolchain does. The serial backend cannot kill its host
process, so it *simulates* the same death: the fault check uses the
identical deterministic draw and surfaces the identical crash
:class:`Outcome`, which is what lets a campaign produce byte-identical
results on both backends even under injected crashes.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ...errors import SweepError
from ...obs import events as obs_events
from ...obs import metrics as obs_metrics
from ...obs import relay as obs_relay
from ...obs import trace as obs_trace
from ...ocl.program import CACHE_COUNTERS
from ..history import (
    params_from_record,
    params_to_record,
    point_fingerprint,
    result_from_record,
    result_to_record,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ExecutionEngine, WorkerSpec
    from ..params import TuningParameters
    from ..results import RunResult

__all__ = [
    "BACKENDS",
    "Task",
    "Outcome",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
]

#: the execution backends ``make_executor`` knows how to build
BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class Task:
    """One grid point queued for execution.

    ``index`` is the point's slot in the campaign's grid-order result
    list; ``key`` its :func:`~repro.core.history.point_fingerprint`;
    ``restarts`` how many worker crashes this point has already
    survived (drives both the ``worker_crash`` fault draw and the
    scheduler's restart budget).
    """

    index: int
    key: str
    params: "TuningParameters"
    restarts: int = 0

    def requeued(self) -> "Task":
        return replace(self, restarts=self.restarts + 1)


@dataclass(frozen=True)
class Outcome:
    """What an executor reports back for one dequeued task.

    ``kind`` is one of ``"done"`` (``result`` holds the point's
    :class:`~repro.core.results.RunResult`), ``"crash"`` (the worker
    died mid-point — the scheduler decides requeue vs budget-exhausted
    failure) or ``"error"`` (the engine *raised*, which per-point
    failures never do — an engine bug that aborts the campaign).
    """

    kind: str
    task: Task
    result: "RunResult | None" = None
    error: str = ""
    exception: BaseException | None = None

    @classmethod
    def done(cls, task: Task, result: "RunResult") -> "Outcome":
        return cls(kind="done", task=task, result=result)

    @classmethod
    def crash(cls, task: Task) -> "Outcome":
        return cls(kind="crash", task=task)

    @classmethod
    def bug(
        cls, task: Task, error: str, exception: BaseException | None = None
    ) -> "Outcome":
        return cls(kind="error", task=task, error=error, exception=exception)


def _injected_crash(engine: object, task: Task) -> bool:
    """Does the ``worker_crash`` fault site fire for this attempt?

    The draw is a pure function of ``(seed, site, point, restarts)``
    (see :class:`~repro.faults.FaultPlan`), so every backend — and a
    killed-and-resumed campaign — sees the same crashes at the same
    points.
    """
    faults = getattr(engine, "faults", None)
    return faults is not None and faults.should_fire(
        "worker_crash", task.key, task.restarts
    )


class Executor:
    """Protocol for campaign execution backends.

    ``session(engine)`` returns a context manager whose
    value exposes two methods:

    ``submit(task)``
        Queue a :class:`Task`; never blocks.
    ``next_outcome()``
        Block until any outstanding task resolves and return its
        :class:`Outcome` (completion order, not submission order).
    ``cancel_pending()``
        Withdraw every task that has not been handed to a worker and
        return the cancelled :class:`Task` list; in-flight points keep
        running. This is the graceful-shutdown drain: on SIGTERM the
        scheduler cancels the queue, collects what is already in
        flight, checkpoints the journal and exits. The process pool
        hands a freed worker its next task as soon as it returns one,
        so a signal that lands while the scheduler records that point
        drains one more point per freed worker.

    Closing the session cancels queued-but-unstarted tasks and releases
    workers. Executors are stateless factories — one instance can open
    any number of sequential sessions (a scheduler opens one per
    batch).
    """

    name: str = "?"
    jobs: int = 1

    def session(self, engine: object):
        raise NotImplementedError


class _SessionBase:
    """Shared context-manager plumbing for executor sessions."""

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:  # pragma: no cover - overridden
        pass


# --------------------------------------------------------------------------
# serial
# --------------------------------------------------------------------------


class SerialExecutor(Executor):
    """Run points inline, one at a time, on the campaign's own engine."""

    name = "serial"
    jobs = 1

    def session(self, engine: object):
        return _SerialSession(engine)


class _SerialSession(_SessionBase):
    def __init__(self, engine: object):
        self._engine = engine
        self._tasks: deque[Task] = deque()

    def submit(self, task: Task) -> None:
        self._tasks.append(task)

    def next_outcome(self) -> Outcome:
        if not self._tasks:
            raise SweepError("executor has no outstanding tasks")
        task = self._tasks.popleft()
        if _injected_crash(self._engine, task):
            return Outcome.crash(task)
        try:
            result = self._engine.run(task.params)  # type: ignore[attr-defined]
        except Exception as exc:
            return Outcome.bug(task, f"{type(exc).__name__}: {exc}", exc)
        return Outcome.done(task, result)

    def cancel_pending(self) -> list[Task]:
        cancelled = list(self._tasks)
        self._tasks.clear()
        return cancelled

    def worker_status(self) -> list[dict[str, object]]:
        return [
            {
                "worker": "serial",
                "pid": os.getpid(),
                "alive": True,
                "point": self._tasks[0].key if self._tasks else "",
            }
        ]

    def close(self) -> None:
        self._tasks.clear()


# --------------------------------------------------------------------------
# processes
# --------------------------------------------------------------------------

#: the ``os._exit`` status an injected worker_crash dies with (visible
#: in ``Process.exitcode`` when debugging a crashed campaign)
CRASH_EXIT_CODE = 3

#: how long an idle worker waits for a task before it checks that the
#: campaign process is still alive
PARENT_POLL_S = 0.5

#: the whole-number :class:`EngineStats` counters a worker ships home
_DELTA_COUNTERS = ("points", "failures", "retries", *CACHE_COUNTERS)


def _stats_delta(current: dict, last: dict) -> dict:
    """The increment between two ``stats_snapshot()``\\ s of an engine.

    ``last`` is updated in place, so successive calls ship disjoint
    deltas — the parent folds every one and never double-counts.
    """
    last_stage = last.get("stage_s", {})
    delta = {name: current[name] - last.get(name, 0) for name in _DELTA_COUNTERS}
    delta["stage_s"] = {
        name: seconds - last_stage.get(name, 0.0)
        for name, seconds in current["stage_s"].items()
    }
    last.update(current)
    return delta


def _process_worker_main(
    conn: "multiprocessing.connection.Connection",
    spec: "WorkerSpec",
    telemetry: bool,
    parent_pid: int,
) -> None:
    """One worker process: rebuild a sibling engine, serve tasks.

    Protocol (all over one duplex pipe): the parent sends
    ``(index, restarts, params_record)`` tuples and a ``None`` sentinel;
    the worker replies ``("done", index, restarts, result_record,
    stats_delta, telemetry_batch)`` /
    ``("error", index, restarts, message, stats_delta, telemetry_batch)``
    per task and ``("stats", stats_delta, telemetry_batch)`` on
    shutdown. Stats — stage seconds, point counters and build-cache
    hits/misses — ride home as *incremental deltas with every point
    outcome* (not only at clean shutdown), so a worker that later gets
    kill -9'd has already banked everything but its in-flight point.

    With ``telemetry=True`` the worker carries buffering obs sinks
    (:class:`~repro.obs.relay.WorkerTelemetry`) and flushes them as the
    ``telemetry_batch`` field — spans, metric deltas and events the
    parent merges into its live sinks. The batch is a separate message
    field, never part of the result record, so result fingerprints are
    byte-identical with telemetry on or off.

    An injected ``worker_crash`` fault hard-kills the process with
    ``os._exit`` *before* the point runs — no flush, no goodbye, the
    parent only notices the pipe going dead. That is deliberate: the
    requeue path must not depend on a dying worker's cooperation.

    The worker also exits once the campaign process dies. Pipe EOF
    cannot tell it — forked workers hold inherited parent-side pipe
    ends — so it polls for tasks and leaves when ``os.getppid()`` stops
    naming ``parent_pid`` (not 1: a subreaper may adopt it). SIGTERM
    gets its default action back; the inherited scheduler handler only
    sets a drain flag nothing here reads.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # under a fork start method the child inherits the parent's live
    # obs sinks; writing to them from here would interleave with the
    # parent, so a worker first resets them — then installs its own
    # buffering variants when the parent asked for telemetry
    from ...obs import set_log, set_registry, set_tracer

    set_tracer(None)
    set_registry(None)
    set_log(None)
    sinks = obs_relay.WorkerTelemetry() if telemetry else None

    from ..engine import ExecutionEngine

    engine = ExecutionEngine.from_worker_spec(spec)
    last_stats: dict = {}

    def flush() -> tuple[dict, dict | None]:
        delta = _stats_delta(engine.stats_snapshot(), last_stats)
        return delta, (sinks.drain() if sinks is not None else None)

    try:
        while True:
            if not conn.poll(PARENT_POLL_S):
                if os.getppid() != parent_pid:
                    return  # orphaned: the campaign process died
                continue
            message = conn.recv()
            if message is None:
                delta, batch = flush()
                conn.send(("stats", delta, batch))
                return
            index, restarts, params_record = message
            params = params_from_record(params_record)
            key = point_fingerprint(engine.target, params)
            if engine.faults is not None and engine.faults.should_fire(
                "worker_crash", key, restarts
            ):
                os._exit(CRASH_EXIT_CODE)
            try:
                result = engine.run(params)
            except Exception as exc:
                delta, batch = flush()
                conn.send(
                    (
                        "error",
                        index,
                        restarts,
                        f"{type(exc).__name__}: {exc}",
                        delta,
                        batch,
                    )
                )
                continue
            record = result_to_record(result, detail=True)
            delta, batch = flush()
            conn.send(("done", index, restarts, record, delta, batch))
    except (EOFError, KeyboardInterrupt):  # parent died / interrupted
        return
    finally:
        conn.close()


class ProcessExecutor(Executor):
    """A pool of worker processes that survives individual worker death.

    Requires a real :class:`~repro.core.engine.ExecutionEngine` (the
    workers rebuild siblings from its
    :meth:`~repro.core.engine.ExecutionEngine.worker_spec`). Results
    cross the process boundary as journal-format JSON records, so a
    process campaign is fingerprint-identical to a serial one.
    """

    name = "process"

    def __init__(self, jobs: int = 2):
        if jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def session(self, engine: object):
        spec_of = getattr(engine, "worker_spec", None)
        if spec_of is None:
            raise SweepError(
                "the process backend needs an ExecutionEngine that can "
                f"describe itself for worker processes; got {type(engine).__name__}"
            )
        methods = multiprocessing.get_all_start_methods()
        return _ProcessSession(
            engine,
            spec_of(),
            self.jobs,
            multiprocessing.get_context("fork" if "fork" in methods else "spawn"),
        )


class _ProcessWorker:
    __slots__ = ("proc", "conn", "current", "slot")

    def __init__(self, proc, conn, slot: int):
        self.proc = proc
        self.conn = conn
        self.current: Task | None = None
        #: the pool slot this worker occupies — stable across respawns
        #: (the parent's worker-id tag for relayed telemetry)
        self.slot = slot

    @property
    def name(self) -> str:
        return f"worker-{self.slot}"


class _ProcessSession(_SessionBase):
    def __init__(
        self,
        engine: "ExecutionEngine",
        spec: "WorkerSpec",
        jobs: int,
        ctx,
    ):
        self._engine = engine
        self._spec = spec
        self._ctx = ctx
        self._pending: deque[Task] = deque()
        # decided once per session: workers buffer and relay telemetry
        # exactly when the parent has a live sink to merge it into
        self._telemetry = (
            obs_trace.active_tracer() is not None
            or obs_metrics.active_registry() is not None
            or obs_events.active_log() is not None
        )
        #: worker processes respawned after a death this session
        self.restarts = 0
        self._workers = [self._spawn(slot) for slot in range(jobs)]

    def _spawn(self, slot: int) -> _ProcessWorker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_process_worker_main,
            args=(child_conn, self._spec, self._telemetry, os.getpid()),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _ProcessWorker(proc, parent_conn, slot)

    def submit(self, task: Task) -> None:
        self._pending.append(task)
        self._dispatch()

    def _dispatch(self) -> None:
        for worker in self._workers:
            if not self._pending:
                return
            if worker.current is None:
                task = self._pending.popleft()
                worker.current = task
                try:
                    worker.conn.send(
                        (task.index, task.restarts, params_to_record(task.params))
                    )
                except (BrokenPipeError, OSError):
                    # the worker is already dead; next_outcome's wait()
                    # sees the closed pipe and reaps it as a crash
                    pass

    def next_outcome(self) -> Outcome:
        while True:
            self._dispatch()
            busy = [w for w in self._workers if w.current is not None]
            if not busy:
                raise SweepError("executor has no outstanding tasks")
            ready = multiprocessing.connection.wait(
                [w.conn for w in busy], timeout=1.0
            )
            for conn in ready:
                worker = next(w for w in self._workers if w.conn is conn)
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    outcome = self._reap(worker)
                    if outcome is not None:
                        return outcome
                    continue
                outcome = self._handle(worker, message)
                if outcome is not None:
                    return outcome

    def _handle(self, worker: _ProcessWorker, message: tuple) -> Outcome | None:
        kind = message[0]
        if kind == "stats":  # clean shutdown: the worker's final flush
            self._absorb(worker, message[1], message[2])
            return None
        task = worker.current
        worker.current = None
        assert task is not None
        # the freed worker starts its next point while this process
        # decodes, journals and reports the one it returned
        self._dispatch()
        if kind == "done":
            self._absorb(worker, message[4], message[5])
            return Outcome.done(task, result_from_record(message[3]))
        if kind == "error":
            self._absorb(worker, message[4], message[5])
            return Outcome.bug(task, message[3])
        raise SweepError(f"unknown worker message {kind!r}")  # pragma: no cover

    def _absorb(self, worker: _ProcessWorker, stats_delta: dict, batch) -> None:
        """Fold one message's stats delta and telemetry batch home."""
        stats = getattr(self._engine, "stats", None)
        if stats is not None and stats_delta:
            stats.merge_snapshot(stats_delta)
        if self._telemetry:
            obs_relay.merge_batch(batch, worker=worker.name)

    def _reap(self, worker: _ProcessWorker) -> Outcome | None:
        """A worker's pipe died: bury it, respawn, report the casualty.

        The restart is annotated into the live trace and event log — in
        the merged trace the dead pid's track simply stops, and the
        ``worker_restart`` instant marks the gap with the slot, the
        dead pid and the in-flight point.
        """
        task = worker.current
        worker.current = None
        worker.conn.close()
        worker.proc.join(timeout=10.0)
        dead_pid = worker.proc.pid
        slot = self._workers.index(worker)
        self._workers[slot] = self._spawn(worker.slot)
        self.restarts += 1
        obs_metrics.count("scheduler.worker_restarts")
        obs_trace.instant(
            "worker_restart",
            "scheduler",
            worker=worker.name,
            pid=dead_pid,
            new_pid=self._workers[slot].proc.pid,
            point=task.key if task is not None else "",
        )
        obs_events.emit(
            "worker_restarted",
            worker=worker.name,
            pid=dead_pid,
            new_pid=self._workers[slot].proc.pid,
            point=task.key if task is not None else "",
        )
        if task is None:  # died idle: nothing was in flight
            return None
        return Outcome.crash(task)

    def cancel_pending(self) -> list[Task]:
        # undispatched backlog only: a task already sent down a worker
        # pipe is in flight and drains normally
        cancelled = list(self._pending)
        self._pending.clear()
        return cancelled

    def worker_status(self) -> list[dict[str, object]]:
        """Per-worker liveness for the campaign health aggregator."""
        return [
            {
                "worker": w.name,
                "pid": w.proc.pid,
                "alive": w.proc.is_alive(),
                "point": w.current.key if w.current is not None else "",
            }
            for w in self._workers
        ]

    def close(self) -> None:
        self._pending.clear()
        for worker in self._workers:
            if worker.proc.is_alive():
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + 10.0
        for worker in self._workers:
            # drain the pipe until the final stats message; a late
            # result from a cancelled point is dropped, but its stats
            # delta and telemetry batch still count
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    if not worker.conn.poll(min(remaining, 1.0)):
                        break
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    break
                if message[0] == "stats":
                    self._absorb(worker, message[1], message[2])
                    break
                if message[0] in ("done", "error"):
                    self._absorb(worker, message[4], message[5])
            worker.conn.close()
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck worker
                worker.proc.terminate()
                worker.proc.join(timeout=5.0)


def make_executor(backend: str, *, jobs: int = 1) -> Executor:
    """Build an executor by backend name (``serial|process``)."""
    if jobs < 1:
        raise SweepError(f"jobs must be >= 1, got {jobs}")
    if backend == "serial":
        return SerialExecutor()
    if backend == "process":
        return ProcessExecutor(jobs)
    raise SweepError(
        f"unknown execution backend {backend!r}; valid: {', '.join(BACKENDS)}"
    )
