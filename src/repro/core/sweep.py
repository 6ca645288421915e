"""Design-space sweeps.

The point of MP-STREAM is not one number but a *campaign*: a cartesian
sweep over tuning axes per target, tolerant of per-point failures (an
FPGA configuration that doesn't fit is a data point, not a crash).
:class:`ParameterSweep` builds the grid; :func:`explore` runs it and
returns a :class:`~repro.core.results.ResultSet`, whose
:meth:`~repro.core.results.ResultSet.best` is the winning configuration.

Execution is delegated to the campaign scheduler
(:mod:`repro.core.scheduler`): :func:`explore` builds the grid and
hands it to a :class:`~repro.core.scheduler.CampaignScheduler`, which
owns ordering, dedup, journaling, crash/requeue policy and
instrumentation, and runs the points on a pluggable backend —
``backend="serial"`` or ``"process"`` (a pool of ``jobs=N`` worker
processes that survives individual worker death). Whatever the
backend or completion order, results come back in grid order with
fingerprints identical to the serial path; see ``docs/SCHEDULING.md``
for the backend matrix.

Resilience: pass ``journal=`` to stream every completed point to a
:class:`~repro.core.history.SweepJournal` as it finishes, and
``resume=True`` to skip points the journal already holds (matched by
parameter fingerprint) — a campaign killed mid-sweep restarts where it
died and produces byte-identical results. The engine's
:class:`~repro.core.engine.Watchdog` bounds each point so one runaway
configuration degrades to a ``"timeout"`` data point instead of
hanging the pool. A *worker death* mid-point (injectable via the
``worker_crash`` fault site) is requeued up to
``max_worker_restarts`` times and then recorded as a
``"worker_crash"`` data point; an engine *bug* (per-point failures
never raise) still cancels the remaining queue and surfaces as a
:class:`~repro.errors.SweepError` naming the grid point.

Verification: an engine constructed with ``verify=True`` runs the
differential verification stage (:mod:`repro.verify`) after every
executed point, so a whole campaign can be swept end-to-end under
``--verify``; mismatches land as ``"verify_mismatch"`` data points and
are tallied in the ``sweep_finished`` event's ``failure_kinds``.

Observability: when :mod:`repro.obs` sinks are active, the campaign is
wrapped in a ``sweep`` trace span and emits ``sweep_started``,
``point_restored`` and ``sweep_finished`` structured events;
:class:`~repro.obs.SweepProgress` is a ready-made ``progress=``
callback reporting rate, ETA, failures and cache hits live — under
``jobs=N`` too, since progress callbacks are already serialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from ..errors import SweepError
from .engine import ExecutionEngine
from .history import SweepJournal
from .params import TuningParameters
from .results import ResultSet, RunResult
from .scheduler import CampaignScheduler

__all__ = ["ParameterSweep", "explore"]


@dataclass
class ParameterSweep:
    """A cartesian grid of tuning-parameter points.

    ``axes`` maps :class:`TuningParameters` field names to value lists;
    ``base`` supplies every unswept field. Invalid combinations (the
    dataclass validates on construction) are skipped and reported via
    :attr:`skipped`.
    """

    base: TuningParameters = field(default_factory=TuningParameters)
    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        valid = set(TuningParameters.__dataclass_fields__)
        unknown = set(self.axes) - valid
        if unknown:
            raise SweepError(
                f"unknown sweep axes {sorted(unknown)}; valid: {sorted(valid)}"
            )
        for name, values in self.axes.items():
            if not values:
                raise SweepError(f"axis {name!r} has no values")
        self.skipped: list[tuple[dict[str, object], str]] = []

    def __len__(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def points(self) -> Iterator[TuningParameters]:
        """All valid points of the grid, row-major in axis order."""
        self.skipped.clear()
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            changes = dict(zip(names, combo))
            try:
                yield self.base.with_(**changes)
            except SweepError as exc:
                self.skipped.append((changes, str(exc)))


def explore(
    runner: ExecutionEngine,
    sweep: ParameterSweep,
    *,
    jobs: int = 1,
    backend: str | None = None,
    progress: Callable[[RunResult], None] | None = None,
    journal: SweepJournal | str | Path | None = None,
    resume: bool = False,
    resume_or_start: bool = False,
    max_worker_restarts: int = 2,
    handle_signals: bool = False,
) -> ResultSet:
    """Run every point of a sweep on a target.

    A thin client of :class:`~repro.core.scheduler.CampaignScheduler`:
    this function's whole job is turning a :class:`ParameterSweep` into
    a point list; ordering, dedup, journaling, crash policy and
    instrumentation belong to the scheduler.

    ``backend`` selects where points run (``"serial"`` or
    ``"process"``); left ``None``, ``jobs > 1`` picks the process
    pool and ``jobs=1`` runs serially. Results keep the grid's
    deterministic row-major order and per-point failure tolerance
    whatever the backend, and ``progress`` fires once per grid point in
    completion order (on the scheduler's thread — callbacks need no
    locking, and one that raises is logged as a ``progress_error``
    event rather than killing the campaign).

    The engine's ``watchdog`` bounds each point's wall/virtual time
    (recorded as a ``"timeout"`` failure on breach). ``journal``
    streams every completed point — failures included, they are data —
    to a JSONL
    :class:`~repro.core.history.SweepJournal`; with ``resume=True``,
    points whose parameter fingerprint the journal already holds are
    restored instead of re-executed (and counted in
    ``journal.reused``), so an interrupted campaign picks up where it
    died with byte-identical results. ``resume=True`` against a missing
    or empty journal is an error — resuming nothing usually means a
    typo'd path — unless ``resume_or_start=True`` opts into falling
    back to a fresh sweep. ``handle_signals=True`` turns SIGTERM/SIGINT
    into a graceful drain (see ``docs/SCHEDULING.md``).

    A worker *death* mid-point is requeued up to ``max_worker_restarts``
    times, then recorded as a ``"worker_crash"`` data point. A worker
    that *raises* (an engine bug — per-point failures are returned, not
    raised) cancels the not-yet-started points and re-raises as
    :class:`~repro.errors.SweepError` naming the grid point, instead of
    leaving orphaned workers running.
    """
    scheduler = CampaignScheduler(
        runner,
        backend=backend,
        jobs=jobs,
        journal=journal,
        resume=resume,
        resume_or_start=resume_or_start,
        progress=progress,
        max_worker_restarts=max_worker_restarts,
        handle_signals=handle_signals,
    )
    points = list(sweep.points())
    return scheduler.run(points, skipped=len(sweep.skipped))

