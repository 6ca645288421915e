"""Unified observability: tracing, metrics, structured logs, progress.

A design-space campaign lives or dies on understanding where its time
and bandwidth go. This package gives every layer of the stack — sweep,
engine stage, build cache, command queue, memory simulators — one of
four sinks to report into:

* :mod:`~repro.obs.trace` — nested wall-clock spans
  (sweep → point → stage → queue command), exported as Chrome
  trace-event JSON for ``chrome://tracing`` / Perfetto;
* :mod:`~repro.obs.metrics` — a process-wide registry of named
  counters and histograms with JSON snapshot export;
* :mod:`~repro.obs.events` — an append-only structured JSONL event log
  whose per-point records carry the journal's point fingerprint;
* :mod:`~repro.obs.progress` — a live progress reporter for
  :func:`~repro.core.sweep.explore`: per-point lines, and the status
  line (rate, ETA, failures, cache hits) of the campaign's
  :mod:`~repro.obs.health` snapshot.

All sinks follow the same contract: module-level helpers no-op when no
sink is installed (a disabled campaign pays one global load per probe),
and instrumentation is strictly *observational* — the virtual device
clock and :meth:`~repro.core.results.RunResult.fingerprint` are
byte-identical with everything on or off. See ``docs/OBSERVABILITY.md``.

:func:`session` wires the sinks up in one ``with`` block::

    from repro import obs

    with obs.session(trace="out/trace.json", metrics="out/metrics.json"):
        explore(engine, sweep, progress=obs.SweepProgress())
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .events import EventLog, active_log, set_log, use_log, warn
from .health import (
    CampaignHealth,
    campaign_health,
    health_from_journal,
    set_campaign_source,
)
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    active_registry,
    load_snapshot,
    set_registry,
    use_registry,
)
from .progress import SweepProgress
from .relay import BufferedEventLog, WorkerTelemetry, merge_batch
from .server import ObsServer, prometheus_text
from .trace import Tracer, active_tracer, set_tracer, use_tracer

__all__ = [
    "Tracer",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "EventLog",
    "BufferedEventLog",
    "WorkerTelemetry",
    "merge_batch",
    "CampaignHealth",
    "campaign_health",
    "health_from_journal",
    "set_campaign_source",
    "ObsServer",
    "prometheus_text",
    "SweepProgress",
    "ObsSession",
    "session",
    "active_tracer",
    "active_registry",
    "active_log",
    "set_tracer",
    "set_registry",
    "set_log",
    "use_tracer",
    "use_registry",
    "use_log",
    "load_snapshot",
    "warn",
]


@dataclass
class ObsSession:
    """The sinks a :func:`session` activated, plus what it wrote."""

    tracer: Tracer | None = None
    registry: MetricsRegistry | None = None
    log: EventLog | None = None
    #: the live exposition server, when ``serve=`` asked for one
    server: ObsServer | None = None
    #: ``(label, path)`` pairs of artifacts written when the session closed
    written: list[tuple[str, Path]] = field(default_factory=list)


@contextmanager
def session(
    *,
    trace: str | Path | bool | None = None,
    metrics: str | Path | bool | None = None,
    log_json: str | Path | None = None,
    serve: int | None = None,
) -> Iterator[ObsSession]:
    """Activate the requested sinks for the block; export on exit.

    ``trace``/``metrics`` accept a path (the artifact is written when
    the block exits) or ``True`` (sink active, in-memory only);
    ``log_json`` takes the JSONL path to append to. Sinks not requested
    are left exactly as they were, so sessions nest.

    ``serve`` starts an :class:`~repro.obs.server.ObsServer` on that
    port (0 = ephemeral) for the block — ``/metrics`` needs a live
    registry, so asking to serve implies an in-memory one even without
    ``metrics``. The server is stopped before the sinks are restored,
    so a graceful-shutdown drain is scrapeable to the very end but no
    scrape ever observes a half-torn-down session.
    """
    out = ObsSession()
    previous: list = []
    try:
        if trace:
            out.tracer = Tracer()
            previous.append(("tracer", set_tracer(out.tracer)))
        if serve is not None and not metrics:
            metrics = True
        if metrics:
            out.registry = MetricsRegistry()
            previous.append(("registry", set_registry(out.registry)))
        if log_json:
            out.log = EventLog(log_json)
            previous.append(("log", set_log(out.log)))
        if serve is not None:
            out.server = ObsServer(port=serve)
        yield out
    finally:
        if out.server is not None:
            out.server.close()
        for kind, prior in reversed(previous):
            if kind == "tracer":
                set_tracer(prior)
            elif kind == "registry":
                set_registry(prior)
            else:
                set_log(prior)
        if out.tracer is not None and not isinstance(trace, bool):
            assert trace is not None
            out.written.append(("trace", out.tracer.save(trace)))
        if out.registry is not None and not isinstance(metrics, bool):
            assert metrics is not None
            out.registry.to_json(metrics)
            out.written.append(("metrics", Path(metrics)))
        if out.log is not None:
            out.log.close()
            out.written.append(("events", out.log.path))
