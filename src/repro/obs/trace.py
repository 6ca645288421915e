"""Span-based wall-clock tracer with Chrome trace-event export.

A sweep is a tree of work: the campaign contains points, a point walks
the engine's generate → compile → plan → execute stages, and the
execute stage drives queue commands. :class:`Tracer` records each of
those as a *complete* span (``ph: "X"``) in the Chrome trace-event
format, so ``--trace out.json`` produces a file that loads directly
into ``chrome://tracing`` or https://ui.perfetto.dev and renders the
nesting per (process, thread) — a process-pool sweep shows one track
per worker process (docs/OBSERVABILITY.md).

Like the metrics registry, instrumented code calls the module-level
:func:`span` helper, which returns a shared no-op when no tracer is
installed: tracing that was not asked for costs one global load per
stage boundary. Spans measure *host* wall time and never touch the
virtual device clock, so traced and untraced runs produce byte-identical
:meth:`~repro.core.results.RunResult.fingerprint` values.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

__all__ = ["Tracer", "active_tracer", "set_tracer", "use_tracer", "span"]


class _NullSpan:
    """The disabled-tracing span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **args: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records a complete event when the block exits."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_t0")

    def __init__(
        self, tracer: "Tracer", name: str, cat: str, args: dict[str, object] | None
    ):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._t0 = 0.0

    def set(self, **args: object) -> None:
        """Attach args discovered while the span is open."""
        if self._args is None:
            self._args = {}
        self._args.update(args)

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        self._tracer._record(self._name, self._cat, self._t0, end, self._args)


class Tracer:
    """Collects spans and instants; exports Chrome trace-event JSON.

    A tracer can also act as one end of the worker telemetry relay
    (:mod:`repro.obs.relay`): :meth:`drain` detaches the buffered
    events for shipping over a pipe, and :meth:`ingest` merges a
    drained batch from another process onto this tracer's timeline —
    rebased via the wall-clock epoch, keyed by the source pid, so the
    merged trace renders one track per worker process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        #: wall-clock time at ``_epoch`` — the cross-process anchor
        #: :meth:`ingest` uses to rebase another tracer's timestamps
        self.wall_epoch = time.time()
        self._pid = os.getpid()
        self._thread_names: dict[tuple[int, int], str] = {}
        self._process_names: dict[int, str] = {}
        self.events: list[dict[str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(
        self, name: str, cat: str = "", args: Mapping[str, object] | None = None
    ) -> _Span:
        """A context manager timing the enclosed block as one span."""
        return _Span(self, name, cat, dict(args) if args else None)

    def instant(
        self, name: str, cat: str = "", args: Mapping[str, object] | None = None
    ) -> None:
        """A zero-duration marker (rendered as an arrow in the viewer)."""
        now = time.perf_counter()
        event: dict[str, object] = {
            "ph": "i",
            "s": "t",
            "name": name,
            "cat": cat or "default",
            "ts": (now - self._epoch) * 1e6,
            "pid": self._pid,
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = dict(args)
        self._append(event)

    def _record(
        self,
        name: str,
        cat: str,
        t0: float,
        t1: float,
        args: dict[str, object] | None,
    ) -> None:
        event: dict[str, object] = {
            "ph": "X",
            "name": name,
            "cat": cat or "default",
            "ts": (t0 - self._epoch) * 1e6,
            "dur": (t1 - t0) * 1e6,
            "pid": self._pid,
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = args
        self._append(event)

    def _append(self, event: dict[str, object]) -> None:
        tid = event["tid"]
        assert isinstance(tid, int)
        with self._lock:
            if (self._pid, tid) not in self._thread_names:
                self._thread_names[self._pid, tid] = threading.current_thread().name
            self.events.append(event)

    # -- relay (see repro.obs.relay) ---------------------------------------

    def drain(self) -> dict[str, object]:
        """Detach the buffered events as a relayable batch (worker side).

        The tracer keeps recording afterwards; repeated drains ship
        disjoint batches. The batch carries this process's pid and
        wall-clock epoch so :meth:`ingest` can place the events on the
        receiving tracer's timeline.
        """
        with self._lock:
            events = self.events
            self.events = []
            names = {
                tid: name
                for (pid, tid), name in self._thread_names.items()
                if pid == self._pid
            }
        return {
            "pid": self._pid,
            "wall_epoch": self.wall_epoch,
            "events": events,
            "thread_names": names,
        }

    def ingest(self, batch: Mapping[str, object], *, label: str | None = None) -> int:
        """Merge a :meth:`drain` batch from another process (parent side).

        Timestamps are rebased from the source tracer's wall-clock
        epoch onto this tracer's, and the source pid is preserved so
        the trace viewer renders the batch as its own process track —
        named ``label`` when given. Returns the number of events merged.
        """
        pid = int(batch["pid"])  # type: ignore[arg-type]
        shift = (float(batch["wall_epoch"]) - self.wall_epoch) * 1e6  # type: ignore[arg-type]
        events: list[dict[str, object]] = list(batch.get("events") or ())  # type: ignore[arg-type]
        names: Mapping[object, str] = batch.get("thread_names") or {}  # type: ignore[assignment]
        with self._lock:
            for event in events:
                event = dict(event)
                event["ts"] = float(event["ts"]) + shift  # type: ignore[arg-type]
                event["pid"] = pid
                self.events.append(event)
            for tid, name in names.items():
                self._thread_names.setdefault((pid, int(tid)), name)  # type: ignore[arg-type]
            if label:
                self._process_names[pid] = label
        return len(events)

    # -- export ------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)

    def to_chrome(self) -> dict[str, object]:
        """The trace as a Chrome trace-event JSON object."""
        with self._lock:
            events = list(self.events)
            names = dict(self._thread_names)
            process_names = dict(self._process_names)
        metadata: list[dict[str, object]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "args": {"name": process_name},
            }
            for pid, process_name in sorted(process_names.items())
        ]
        metadata += [
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread_name},
            }
            for (pid, tid), thread_name in sorted(names.items())
        ]
        return {"displayTimeUnit": "ms", "traceEvents": metadata + events}

    def save(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome()) + "\n")
        return path


# --------------------------------------------------------------------------
# the active tracer (None = tracing disabled)
# --------------------------------------------------------------------------

_ACTIVE: Tracer | None = None


def active_tracer() -> Tracer | None:
    """The currently installed tracer, or ``None`` when disabled."""
    return _ACTIVE


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Scope ``tracer`` as the active sink for the ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def span(name: str, cat: str = "", **args: object) -> "_Span | _NullSpan":
    """Open a span on the active tracer; a shared no-op when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, cat, args or None)


def instant(name: str, cat: str = "", **args: object) -> None:
    """Record an instant marker on the active tracer (no-op if none)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.instant(name, cat, args or None)
