"""The campaign scheduler: backend-agnostic sweep orchestration.

:class:`CampaignScheduler` owns everything about running a batch of
grid points *except* where they execute: grid-order result assembly,
deduplication by :func:`~repro.core.history.point_fingerprint`,
journal-backed checkpoint/resume, the worker-crash requeue policy,
progress callbacks, and the campaign's obs events/spans/metrics.
Execution itself is delegated to an :class:`~repro.core.scheduler.executors.Executor`
(serial / process — see :mod:`repro.core.scheduler.executors`),
so :func:`repro.core.sweep.explore`,
:func:`repro.core.search.multifidelity_search` and the CLI are all thin
clients of one scheduling engine.

Crash/requeue policy
--------------------
A ``"crash"`` outcome (a worker died mid-point — injectable via the
``worker_crash`` fault site) is *scheduler* business, not a campaign
abort: the in-flight point is resubmitted with an incremented restart
count until ``max_worker_restarts`` is exhausted, at which point it is
recorded as a deterministic ``"worker_crash"`` failure — a
data point, like any other per-point failure. All crash bookkeeping
lives in the fingerprint-excluded ``detail["scheduler"]`` provenance
key, in obs events (``point_requeued``) and in metrics
(``scheduler.crashes``, ``scheduler.requeues``,
``scheduler.worker_restarts``), so a campaign's :class:`ResultSet` is
fingerprint-identical across backends, crash schedules and resumes.

An ``"error"`` outcome — the engine *raised*, which per-point failures
never do — still aborts the campaign as a
:class:`~repro.errors.SweepError` naming the grid point: that is an
engine bug, and requeueing a bug would loop forever.

Graceful shutdown and journal degradation
-----------------------------------------
With ``handle_signals=True`` (the CLI's default for ``sweep``) the
scheduler converts SIGTERM/SIGINT into a *drain*: pending tasks are
cancelled, in-flight points finish and are journaled, the journal gets
a final :meth:`~repro.core.history.SweepJournal.sync` checkpoint, and
:attr:`CampaignScheduler.interrupted` names the signal so the CLI can
exit 130 instead of 0 — ``--resume`` later picks up exactly where the
drain stopped.

A journal that *itself* fails mid-sweep (ENOSPC, a dying disk, the
``journal_fsync``/``disk_full`` fault sites) degrades rather than
kills: the on-disk family is quarantined for post-mortem, a
``journal_degraded`` event is emitted, and the campaign keeps running
in memory — losing durability must cost a re-run, never the hours of
results already in RAM.
"""

from __future__ import annotations

import signal
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ...errors import JournalError, SweepError
from ...obs import events as obs_events
from ...obs import health as obs_health
from ...obs import metrics as obs_metrics
from ...obs import trace as obs_trace
from ..history import SweepJournal, point_fingerprint
from ..params import TuningParameters
from ..results import ResultSet, RunResult
from .executors import BACKENDS, Executor, Task, make_executor

__all__ = ["CampaignScheduler"]

#: the registry counters :meth:`CampaignScheduler.health_snapshot`
#: reports this campaign's share of, in the order it unpacks them
_COUNTED = (
    "build_cache.frontend_hits",
    "build_cache.frontend_misses",
    "scheduler.requeues",
    "scheduler.worker_restarts",
)


class CampaignScheduler:
    """Orchestrates one campaign's points through a pluggable executor.

    ``backend`` picks an executor by name (``serial|process``);
    ``None`` auto-selects — the process pool when ``jobs > 1`` and
    there is more than one point to run, serial otherwise.

    The scheduler is reusable: each :meth:`run` call schedules one
    batch, and the journal/restore state carries across batches. Its
    events are counted once, in the active metrics registry
    (``scheduler.*``); :meth:`health_snapshot` reports this campaign's
    share of them.
    """

    def __init__(
        self,
        engine: object,
        *,
        backend: str | None = None,
        jobs: int = 1,
        journal: SweepJournal | str | Path | None = None,
        resume: bool = False,
        resume_or_start: bool = False,
        progress: Callable[[RunResult], None] | None = None,
        max_worker_restarts: int = 2,
        handle_signals: bool = False,
    ):
        if jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {jobs}")
        if max_worker_restarts < 0:
            raise SweepError(
                f"max_worker_restarts must be >= 0, got {max_worker_restarts}"
            )
        resume = resume or resume_or_start
        if resume and journal is None:
            raise SweepError("resume=True requires a journal")
        if backend is not None and backend not in BACKENDS:
            raise SweepError(
                f"unknown execution backend {backend!r}; valid: {', '.join(BACKENDS)}"
            )
        self.engine = engine
        self.backend = backend
        self.jobs = jobs
        if journal is not None and not isinstance(journal, SweepJournal):
            journal = SweepJournal(journal)
        if journal is not None and journal.faults is None:
            # wire the journal into the campaign's seeded fault plan so
            # the journal_write/journal_fsync/disk_full sites fire on
            # reproducible schedules
            journal.faults = getattr(self.engine, "faults", None)
        self.journal = journal
        self.resume = resume
        self.progress = progress
        self.max_worker_restarts = max_worker_restarts
        self.handle_signals = handle_signals
        #: completed results by point key: the journal's contents when
        #: resuming, plus everything finished by this scheduler since
        self._restored: dict[str, RunResult] = (
            journal.load() if (resume and journal is not None) else {}
        )
        if resume and not resume_or_start and not self._restored:
            assert journal is not None
            state = (
                "has no restorable records"
                if journal.exists()
                else "does not exist"
            )
            raise SweepError(
                f"cannot resume: journal {journal.path} {state}; start the "
                "campaign without --resume, or pass --resume-or-start to "
                "fall back to a fresh sweep"
            )
        #: executor backend the last :meth:`run` actually used
        self.backend_used: str | None = None
        #: signal name (``"SIGTERM"``/``"SIGINT"``) when a graceful
        #: shutdown drained the campaign, else ``None``
        self.interrupted: str | None = None
        #: the journal failed mid-sweep and was quarantined; the
        #: campaign finished (or is finishing) in-memory
        self.journal_degraded = False
        self.journal_error = ""
        self._stop_signal: str | None = None
        #: pending points withdrawn by a shutdown drain (all batches)
        self.cancelled = 0
        # live-batch state behind health_snapshot() (read from the obs
        # server's thread; ints/refs only, so torn reads are harmless)
        self._batch_total = 0
        self._batch_restored = 0
        self._batch_deduped = 0
        self._batch_done = 0
        self._batch_failed = 0
        self._failure_kinds: dict[str, int] = {}
        self._queue_depth = 0
        #: the batch's start and, once it is over, its end (monotonic)
        self._run_t0: float | None = None
        self._run_t1: float | None = None
        self._session: object | None = None
        #: this campaign's share of the :data:`_COUNTED` registry
        #: counters, as (values, registry): during a batch, offsets to
        #: add to the registry's counts (so what it counted before the
        #: batch cancels out); between batches, the totals and
        #: ``None``. One tuple, so a read from the obs server's thread
        #: never sees half an update
        self._counts: tuple[
            tuple[int, ...], obs_metrics.MetricsRegistry | None
        ] = ((0,) * len(_COUNTED), None)
        # the newest scheduler is what /campaign and /health report on
        obs_health.set_campaign_source(self.health_snapshot)

    # -- scheduling --------------------------------------------------------

    def run(
        self,
        points: Iterable[TuningParameters] | Sequence[TuningParameters],
        *,
        skipped: int = 0,
    ) -> ResultSet:
        """Run one batch of points; results come back in input order.

        ``skipped`` is reported in the ``sweep_started`` event (grid
        points the sweep definition rejected before scheduling).
        """
        points = list(points)
        target = self.engine.target  # type: ignore[attr-defined]
        keys = [point_fingerprint(target, p) for p in points]
        slots: list[RunResult | None] = [None] * len(points)

        # restore journaled points, dedup the rest by fingerprint
        queue: list[Task] = []
        primary_of: dict[str, int] = {}
        aliases: dict[str, list[int]] = {}
        restored = 0
        for i, (params, key) in enumerate(zip(points, keys)):
            prior = self._restored.get(key)
            if prior is not None:
                slots[i] = prior
                restored += 1
                if self.journal is not None:
                    self.journal.note_reused()
                obs_events.emit("point_restored", point=key, target=target)
            elif key in primary_of:
                aliases.setdefault(key, []).append(i)
                obs_metrics.count("scheduler.deduped")
                obs_events.emit(
                    "point_deduped",
                    point=key,
                    index=i,
                    primary=primary_of[key],
                    target=target,
                )
            else:
                primary_of[key] = i
                queue.append(Task(index=i, key=key, params=params))

        executor = self._resolve_executor(len(queue))
        self.backend_used = executor.name
        self._batch_total = len(points)
        self._batch_restored = restored
        self._batch_deduped = sum(len(v) for v in aliases.values())
        self._batch_done = restored
        self._batch_failed = 0
        self._failure_kinds = {}
        self._queue_depth = len(queue)
        self._run_t1 = None
        self._run_t0 = time.monotonic()
        registry = obs_metrics.active_registry()
        if registry is not None:
            offsets = tuple(
                ours - theirs
                for ours, theirs in zip(
                    self._campaign_counts(), _registry_counts(registry)
                )
            )
            self._counts = (offsets, registry)
        obs_events.emit(
            "sweep_started",
            target=target,
            points=len(points),
            restored=restored,
            skipped=skipped,
            jobs=self.jobs,
            backend=executor.name,
            deduped=sum(len(v) for v in aliases.values()),
        )
        requeued_here = 0
        previous_handlers = self._install_signal_handlers()
        try:
            with obs_trace.span(
                "sweep", "sweep", target=target, points=len(points),
                jobs=self.jobs,
            ):
                if queue:
                    with executor.session(self.engine) as session:
                        self._session = session
                        for task in queue:
                            session.submit(task)
                        outstanding = len(queue)
                        while outstanding:
                            if (
                                self._stop_signal is not None
                                and self.interrupted is None
                            ):
                                # graceful shutdown: withdraw the queue,
                                # drain what is already in flight
                                cancelled = session.cancel_pending()
                                outstanding -= len(cancelled)
                                self._queue_depth = outstanding
                                self.cancelled += len(cancelled)
                                self.interrupted = self._stop_signal
                                obs_metrics.count("scheduler.interrupts")
                                obs_events.emit(
                                    "sweep_interrupted",
                                    target=target,
                                    signal=self.interrupted,
                                    cancelled=len(cancelled),
                                    in_flight=outstanding,
                                )
                                if not outstanding:
                                    break
                            outcome = session.next_outcome()
                            task = outcome.task
                            if outcome.kind == "done":
                                assert outcome.result is not None
                                self._finish(
                                    slots, keys, aliases, task.index,
                                    outcome.result,
                                )
                                outstanding -= 1
                            elif outcome.kind == "crash":
                                obs_metrics.count("scheduler.crashes")
                                if self.interrupted is not None:
                                    # mid-drain: neither requeue (that
                                    # would extend the shutdown) nor
                                    # record a budget failure (resume
                                    # must replay the crash-free
                                    # schedule) — the point just re-runs
                                    # on resume
                                    self.cancelled += 1
                                    outstanding -= 1
                                elif task.restarts < self.max_worker_restarts:
                                    requeued_here += 1
                                    obs_metrics.count("scheduler.requeues")
                                    obs_events.emit(
                                        "point_requeued",
                                        point=task.key,
                                        target=target,
                                        restarts=task.restarts + 1,
                                    )
                                    session.submit(task.requeued())
                                else:
                                    self._finish(
                                        slots,
                                        keys,
                                        aliases,
                                        task.index,
                                        self._crash_failure(
                                            task, executor.name
                                        ),
                                    )
                                    outstanding -= 1
                            else:  # an engine bug: abort the campaign loudly
                                raise SweepError(
                                    f"sweep worker crashed at grid point "
                                    f"{task.index} ({task.params.describe()}): "
                                    f"{outcome.error}"
                                ) from outcome.exception
                            self._queue_depth = outstanding
        finally:
            self._run_t1 = time.monotonic()
            self._session = None
            self._counts = (self._campaign_counts(), None)
            self._restore_signal_handlers(previous_handlers)
        if self.interrupted is not None and self.journal is not None:
            # final checkpoint: everything drained is on disk before exit
            self.journal.sync()

        results = ResultSet(r for r in slots if r is not None)
        kinds = results.failure_kinds()
        obs_events.emit(
            "sweep_finished",
            target=target,
            points=len(results),
            failures=sum(kinds.values()),
            failure_kinds=kinds,
            requeues=requeued_here,
            interrupted=self.interrupted or "",
        )
        return results

    # -- health ------------------------------------------------------------

    def health_snapshot(self) -> obs_health.CampaignHealth:
        """The live :class:`~repro.obs.health.CampaignHealth` snapshot.

        Registered as the process-wide campaign source in
        ``__init__``, so the obs server's ``/campaign`` and
        ``/health`` endpoints (and the ``campaign_*`` gauges on
        ``/metrics``) read it from another thread mid-batch. Reads
        ints and object refs only — a torn read costs at most one
        slightly stale sample, never a crash.
        """
        executed = max(
            0, self._batch_done - self._batch_restored - self._batch_deduped
        )
        t0, t1 = self._run_t0, self._run_t1
        if t0 is None:
            elapsed = 0.0
        else:  # a finished batch's elapsed time is frozen at its end
            elapsed = (time.monotonic() if t1 is None else t1) - t0
        rate = executed / elapsed if elapsed > 0 and executed else 0.0
        remaining = max(0, self._batch_total - self._batch_done)
        eta = remaining / rate if rate > 0 else None

        hits, misses, requeues, restarts = self._campaign_counts()
        cache_hit_rate = hits / (hits + misses) if hits + misses else None
        crash_failures = self._failure_kinds.get("worker_crash", 0)

        session = self._session
        workers: list[dict[str, object]] = []
        if session is not None:
            status = getattr(session, "worker_status", None)
            if callable(status):
                workers = status()

        journal_state: dict[str, object] | None = None
        if self.journal is not None:
            journal_state = {
                "path": str(self.journal.path),
                "reused": self.journal.reused,
                "executed": self.journal.executed,
                "discarded": self.journal.discarded,
                "degraded": False,
            }
        elif self.journal_degraded:
            journal_state = {
                "degraded": True,
                "error": self.journal_error,
            }

        return obs_health.CampaignHealth(
            verdict=obs_health.derive_verdict(
                points_total=self._batch_total,
                executed=executed,
                failed=self._batch_failed,
                crash_failures=crash_failures,
                journal_degraded=self.journal_degraded,
                interrupted=self.interrupted or "",
            ),
            target=str(getattr(self.engine, "target", "")),
            backend=self.backend_used or self.backend or "",
            jobs=self.jobs,
            points_total=self._batch_total,
            points_done=self._batch_done,
            points_failed=self._batch_failed,
            points_restored=self._batch_restored,
            points_deduped=self._batch_deduped,
            queue_depth=self._queue_depth,
            elapsed_s=elapsed,
            rate_points_per_s=rate,
            eta_s=eta,
            failure_kinds=dict(sorted(self._failure_kinds.items())),
            cache_hit_rate=cache_hit_rate,
            worker_restarts=restarts,
            requeues=requeues,
            crash_failures=crash_failures,
            interrupted=self.interrupted or "",
            journal=journal_state,
            workers=workers,
        )

    # -- internals ---------------------------------------------------------

    def _campaign_counts(self) -> tuple[int, ...]:
        """This campaign's :data:`_COUNTED` counts so far, in order."""
        counts, registry = self._counts
        if registry is None:
            return counts
        return tuple(
            ours + theirs
            for ours, theirs in zip(counts, _registry_counts(registry))
        )

    def _install_signal_handlers(self) -> dict[int, object]:
        """SIGTERM/SIGINT → drain flag; only from the main thread."""
        if (
            not self.handle_signals
            or threading.current_thread() is not threading.main_thread()
        ):
            return {}
        previous: dict[int, object] = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, self._on_signal)
        return previous

    def _restore_signal_handlers(self, previous: dict[int, object]) -> None:
        for signum, handler in previous.items():
            signal.signal(signum, handler)  # type: ignore[arg-type]

    def _on_signal(self, signum: int, frame: object) -> None:
        # set a flag only — the run loop drains at the next outcome;
        # a second signal keeps the same graceful path (the user can
        # always kill -9 an unresponsive campaign)
        self._stop_signal = signal.Signals(signum).name

    def _resolve_executor(self, todo: int) -> Executor:
        backend = self.backend
        if backend is None:
            # a pool only pays when two workers have work to share
            backend = "serial" if self.jobs == 1 or todo <= 1 else "process"
        return make_executor(backend, jobs=self.jobs)

    def _finish(
        self,
        slots: list[RunResult | None],
        keys: list[str],
        aliases: dict[str, list[int]],
        index: int,
        result: RunResult,
    ) -> None:
        slots[index] = result
        key = keys[index]
        self._batch_done += 1
        if not result.ok:
            self._batch_failed += 1
            kind = result.failure_kind or "unclassified"
            self._failure_kinds[kind] = self._failure_kinds.get(kind, 0) + 1
        if self.journal is not None:
            try:
                self.journal.record(key, result)
            except JournalError as exc:
                self._degrade_journal(exc)
        if self.resume:
            self._restored[key] = result
        self._report(result)
        # duplicate grid points share their twin's result (and fire
        # progress, so reporters still see one callback per grid point)
        for alias_index in aliases.pop(key, ()):
            slots[alias_index] = result
            self._batch_done += 1
            self._report(result)

    def _degrade_journal(self, exc: JournalError) -> None:
        """The journal failed mid-sweep: quarantine it, keep running.

        Durability is gone but the campaign is not — results stay
        in-memory (and in :attr:`_restored` for later batches), the
        operator is told via the ``journal_degraded`` event and the
        CLI warning, and the quarantined family is preserved for
        post-mortem instead of being appended to by a journal that is
        known to be failing.
        """
        journal = self.journal
        assert journal is not None
        self.journal = None
        self.journal_degraded = True
        self.journal_error = f"{type(exc).__name__}: {exc}"
        quarantined = journal.quarantine()
        obs_metrics.count("scheduler.journal_degraded")
        obs_events.emit(
            "journal_degraded",
            path=str(journal.path),
            error=self.journal_error,
            quarantined=str(quarantined) if quarantined is not None else "",
        )

    def _report(self, result: RunResult) -> None:
        if self.progress is None:
            return
        try:
            self.progress(result)
        except Exception as exc:  # a broken reporter must not kill the sweep
            obs_metrics.count("scheduler.progress_errors")
            obs_events.emit(
                "progress_error", error=f"{type(exc).__name__}: {exc}"
            )

    def _crash_failure(self, task: Task, backend: str) -> RunResult:
        """The deterministic data point for a restart-budget-exhausted
        crash — identical on every backend (the backend name lands only
        in the fingerprint-excluded ``detail["scheduler"]``)."""
        attempts = task.restarts + 1
        return RunResult(
            target=self.engine.target,  # type: ignore[attr-defined]
            params=task.params,
            times=(),
            moved_bytes=task.params.moved_bytes,
            validated=False,
            error=(
                f"worker crashed {attempts} time(s) running this point; "
                f"restart budget ({self.max_worker_restarts}) exhausted"
            ),
            failure_kind="worker_crash",
            detail={
                "scheduler": {"backend": backend, "restarts": task.restarts}
            },
        )


def _registry_counts(registry: obs_metrics.MetricsRegistry) -> tuple[int, ...]:
    """The registry's :data:`_COUNTED` counters, read from a snapshot so
    that reading creates no counter."""
    counters = registry.snapshot()["counters"]
    return tuple(counters.get(name, 0) for name in _COUNTED)
