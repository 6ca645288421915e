"""Cross-process telemetry relay: buffering worker sinks, parent merge.

The process executor's workers used to start with observability off —
under ``--backend process`` every engine-stage span, memsim counter and
per-point event from a child was silently dropped. The relay closes
that gap with the same sink contract the rest of :mod:`repro.obs`
uses, split across the pipe:

* **Worker side** — :class:`WorkerTelemetry` installs *buffering*
  variants of the sinks the parent has live (:func:`active_sinks`): an
  in-memory :class:`~repro.obs.trace.Tracer`, a
  :class:`~repro.obs.metrics.MetricsRegistry`, a
  :class:`BufferedEventLog`. Instrumented code is oblivious: it calls
  the same module-level probes, which now accumulate instead of
  writing, or no-op for a sink the parent would drop. After each point
  the worker :meth:`~WorkerTelemetry.drain`\\ s the sinks into one
  picklable batch and ships it home alongside the point's outcome.
* **Parent side** — :func:`merge_batch` folds a drained batch into the
  parent's *live* sinks: trace events are rebased onto the parent
  tracer's timeline and keep the worker's pid (one Perfetto track per
  worker), metric deltas are added into the live registry, and events
  are re-emitted into the live log tagged with the worker id and pid.

Because telemetry rides as a *separate* message field — never inside
the result record — result fingerprints stay byte-identical traced vs.
untraced and serial vs. process. A worker killed mid-point loses at
most that point's un-drained batch; everything it already shipped is
safe in the parent.
"""

from __future__ import annotations

import os
import time
from typing import Collection, Mapping

from .events import active_log, set_log
from .metrics import MetricsRegistry, active_registry, set_registry
from .trace import Tracer, active_tracer, set_tracer

__all__ = ["BufferedEventLog", "WorkerTelemetry", "active_sinks", "merge_batch"]


class BufferedEventLog:
    """An in-memory event sink with :class:`~repro.obs.events.EventLog`'s
    emit contract: records accumulate for relaying instead of being
    written to a file."""

    def __init__(self) -> None:
        self.records: list[dict[str, object]] = []
        #: events buffered through this sink (parity with EventLog)
        self.emitted = 0

    def emit(self, event: str, **fields: object) -> None:
        record: dict[str, object] = {"ts": round(time.time(), 6), "event": event}
        record.update(fields)
        self.records.append(record)
        self.emitted += 1

    def drain(self) -> list[dict[str, object]]:
        records = self.records
        self.records = []
        return records

    def close(self) -> None:
        return None


def active_sinks() -> frozenset[str]:
    """The kinds of sink live in this process: ``"trace"``,
    ``"metrics"`` and/or ``"events"``, the keys a batch files them
    under."""
    live = {
        "trace": active_tracer(),
        "metrics": active_registry(),
        "events": active_log(),
    }
    return frozenset(kind for kind, sink in live.items() if sink is not None)


class WorkerTelemetry:
    """Install buffering sinks in a worker process; drain them per point.

    Constructed once per worker (after fork/spawn, so the tracer's pid
    is the worker's own) with the parent's :func:`active_sinks`. It
    replaces all three process-wide sinks: a buffering variant of each
    kind in ``sinks``, none for the rest. :meth:`drain` is called after
    every point to flush whatever the engine recorded into one
    relayable batch.
    """

    def __init__(self, sinks: Collection[str]) -> None:
        self.tracer = Tracer() if "trace" in sinks else None
        self.registry = MetricsRegistry() if "metrics" in sinks else None
        self.log = BufferedEventLog() if "events" in sinks else None
        set_tracer(self.tracer)
        set_registry(self.registry)
        set_log(self.log)

    def drain(self) -> dict[str, object] | None:
        """Everything buffered since the last drain, or ``None``."""
        batch: dict[str, object] = {}
        if self.tracer is not None:
            trace = self.tracer.drain()
            if trace["events"]:
                batch["trace"] = trace
        if self.registry is not None:
            metrics = self.registry.drain_snapshot()
            if any(metrics.values()):
                batch["metrics"] = metrics
        if self.log is not None:
            events = self.log.drain()
            if events:
                batch["events"] = events
        if not batch:
            return None
        batch["pid"] = os.getpid()
        return batch


def merge_batch(batch: Mapping[str, object] | None, *, worker: str) -> None:
    """Fold a worker's drained batch into the parent's live sinks.

    ``worker`` is the parent's stable name for the source slot (e.g.
    ``"worker-2"`` — the pid changes when a crashed worker is
    respawned, the slot does not). Sinks the parent does not have
    active are skipped, so a ``--trace``-only run never pays for
    metrics merging.
    """
    if not batch:
        return
    pid = batch.get("pid")
    tracer = active_tracer()
    trace = batch.get("trace")
    if tracer is not None and trace:
        tracer.ingest(trace, label=f"{worker} (pid {pid})")  # type: ignore[arg-type]
    registry = active_registry()
    metrics = batch.get("metrics")
    if registry is not None and metrics:
        registry.merge_snapshot(metrics)  # type: ignore[arg-type]
    log = active_log()
    if log is not None:
        for record in batch.get("events") or ():  # type: ignore[union-attr]
            record = dict(record)
            event = str(record.pop("event", "event"))
            record.setdefault("worker", worker)
            record.setdefault("worker_pid", pid)
            # the buffered ``ts`` rides along in the fields and
            # overrides the parent log's stamp, preserving worker-side
            # ordering in the merged JSONL
            log.emit(event, **record)
