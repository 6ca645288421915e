"""Campaign health aggregation: one structured snapshot per campaign.

A campaign's health is scattered across the layers PR 3–7 built — the
metrics registry counts everything, the scheduler knows queue depth
and crash/requeue history, the executor session knows which workers
are alive, the journal knows what is durable. :class:`CampaignHealth`
folds all of that into one JSON-ready snapshot (point rates, ETA,
failure-kind breakdown, cache hit rate, queue depth, per-worker
status) — the payload behind the exposition server's ``/campaign``
endpoint and the ``campaign_*`` gauges on ``/metrics``.

The snapshot is produced by whoever owns the state: a *live* campaign
registers :meth:`~repro.core.scheduler.campaign.CampaignScheduler.health_snapshot`
via :func:`set_campaign_source` (the same active-sink pattern the
other obs modules use), while an *outside* watcher derives one from
the on-disk journal with :func:`health_from_journal`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

__all__ = [
    "CampaignHealth",
    "derive_verdict",
    "active_campaign_source",
    "set_campaign_source",
    "campaign_health",
    "health_from_journal",
]


@dataclass
class CampaignHealth:
    """A structured, JSON-ready snapshot of one campaign's health."""

    #: ``healthy`` | ``degraded`` | ``failing`` | ``interrupted`` | ``idle``
    verdict: str = "idle"
    target: str = ""
    backend: str = ""
    jobs: int = 1
    #: grid points in the current batch (after skip filtering)
    points_total: int = 0
    #: slots filled: restored + executed + crash failures + dedup aliases
    points_done: int = 0
    points_failed: int = 0
    points_restored: int = 0
    points_deduped: int = 0
    #: tasks submitted but not yet resolved (the live queue gauge)
    queue_depth: int = 0
    elapsed_s: float = 0.0
    #: executed points per second this batch (restored points excluded)
    rate_points_per_s: float = 0.0
    #: seconds to finish at the current rate; ``None`` when unknowable
    eta_s: float | None = None
    failure_kinds: dict[str, int] = field(default_factory=dict)
    #: this campaign's build-cache front-end hit rate, from the metrics
    #: registry; ``None`` before its first lookup or with no registry
    cache_hit_rate: float | None = None
    #: this campaign's ``scheduler.worker_restarts`` and
    #: ``scheduler.requeues`` registry counts (0 with no registry)
    worker_restarts: int = 0
    requeues: int = 0
    #: ``failure_kinds["worker_crash"]``: points whose restart budget ran out
    crash_failures: int = 0
    #: signal name when a graceful drain stopped the campaign
    interrupted: str = ""
    #: journal state (path, restored/executed/discarded, degradation)
    journal: dict[str, object] | None = None
    #: per-worker liveness: slot, pid, alive, in-flight point
    workers: list[dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Liveness verdict: anything but ``failing`` keeps serving."""
        return self.verdict != "failing"

    def to_json(self) -> dict[str, object]:
        out: dict[str, object] = asdict(self)
        out["ok"] = self.ok
        return out

    def gauges(self) -> dict[str, float]:
        """The snapshot's numeric core, as ``campaign_*`` gauge values
        for the Prometheus exposition (:mod:`repro.obs.server`)."""
        out = {
            "campaign_points_planned": float(self.points_total),
            "campaign_points_done": float(self.points_done),
            "campaign_points_failed": float(self.points_failed),
            "campaign_points_restored": float(self.points_restored),
            "campaign_queue_depth": float(self.queue_depth),
            "campaign_elapsed_seconds": float(self.elapsed_s),
            "campaign_rate_points_per_second": float(self.rate_points_per_s),
            "campaign_worker_restarts": float(self.worker_restarts),
            "campaign_requeues": float(self.requeues),
            "campaign_workers_alive": float(
                sum(1 for w in self.workers if w.get("alive"))
            ),
            "campaign_healthy": 1.0 if self.ok else 0.0,
        }
        if self.eta_s is not None:
            out["campaign_eta_seconds"] = float(self.eta_s)
        if self.cache_hit_rate is not None:
            out["campaign_cache_hit_rate"] = float(self.cache_hit_rate)
        return out

    def status_line(self) -> str:
        """The sweep's one-line status, e.g. ``17/40 points  3.2 pt/s
        eta 7.2s  1 failed  cache 84%`` (no ETA before a rate, no
        failures or cache part while they are zero or unknown)."""
        parts = [
            f"{self.points_done}/{self.points_total} points",
            f"{self.rate_points_per_s:.1f} pt/s",
        ]
        if self.eta_s is not None:
            parts.append(f"eta {self.eta_s:.1f}s")
        if self.points_failed:
            parts.append(f"{self.points_failed} failed")
        if self.cache_hit_rate is not None:
            parts.append(f"cache {self.cache_hit_rate:.0%}")
        return "  ".join(parts)


def derive_verdict(
    *,
    points_total: int,
    executed: int,
    failed: int,
    crash_failures: int = 0,
    journal_degraded: bool = False,
    interrupted: str = "",
) -> str:
    """The one-word campaign verdict ``/health`` reports.

    ``failing`` — every executed point so far failed (and at least one
    ran); ``interrupted`` — a graceful drain stopped the campaign;
    ``degraded`` — some failures/crashes, or durability was lost;
    ``idle`` — nothing scheduled yet; ``healthy`` otherwise.
    """
    if interrupted:
        return "interrupted"
    if executed and failed >= executed:
        return "failing"
    if failed or crash_failures or journal_degraded:
        return "degraded"
    if not points_total:
        return "idle"
    return "healthy"


# --------------------------------------------------------------------------
# the active campaign source (None = no live campaign to report on)
# --------------------------------------------------------------------------

_SOURCE: Callable[[], CampaignHealth] | None = None


def active_campaign_source() -> Callable[[], CampaignHealth] | None:
    """The installed campaign health source, or ``None``."""
    return _SOURCE


def set_campaign_source(
    source: Callable[[], CampaignHealth] | None,
) -> Callable[[], CampaignHealth] | None:
    """Install the callable ``/campaign`` snapshots come from; returns
    the previous one. A scheduler installs itself when it starts
    running (latest campaign wins, and the final snapshot stays
    readable after the run for post-mortem scrapes)."""
    global _SOURCE
    previous = _SOURCE
    _SOURCE = source
    return previous


def campaign_health() -> CampaignHealth | None:
    """Snapshot the active campaign, or ``None`` when there is none."""
    source = _SOURCE
    return source() if source is not None else None


def health_from_journal(path: str | Path) -> CampaignHealth:
    """Derive a campaign snapshot from its on-disk journal family.

    This is the outside-the-process view (``mp-stream obs serve
    --journal``): read-only, safe against a live campaign, and
    necessarily partial — the journal records completed points, not
    queue depth or worker liveness, so those fields stay at their
    defaults and the total is the number of distinct journaled points.
    """
    # lazy import: repro.core modules import repro.obs at module load
    from ..core.history import fsck_journal, scan_results
    from ..core.results import ResultSet

    path = Path(path)
    fsck = fsck_journal(path)
    results = ResultSet(scan_results(path).values())
    kinds = results.failure_kinds()
    failed = sum(kinds.values())
    crash_failures = kinds.get("worker_crash", 0)
    return CampaignHealth(
        verdict=derive_verdict(
            points_total=len(results),
            executed=len(results),
            failed=failed,
            crash_failures=crash_failures,
            journal_degraded=not fsck.clean,
        ),
        target=results[0].target if results else "",
        points_total=len(results),
        points_done=len(results),
        points_failed=failed,
        failure_kinds=kinds,
        crash_failures=crash_failures,
        journal={
            "path": fsck.path,
            "files": list(fsck.files),
            "records": fsck.records,
            "valid": fsck.valid,
            "dropped": fsck.dropped,
            "clean": fsck.clean,
        },
    )
