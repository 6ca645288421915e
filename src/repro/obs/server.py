"""Live observability exposition over HTTP (stdlib only).

:class:`ObsServer` serves three endpoints from a background thread:

``/metrics``
    The active :class:`~repro.obs.metrics.MetricsRegistry` snapshot
    plus the campaign's ``campaign_*`` gauges, rendered as Prometheus
    text exposition format (version 0.0.4) by :func:`prometheus_text`.
``/health``
    Liveness plus the campaign verdict, as a small JSON object — a
    probe target for a service manager.
``/campaign``
    The full :class:`~repro.obs.health.CampaignHealth` snapshot as
    JSON.

Naming conventions on ``/metrics``: dot-separated registry names map
to underscores (``scheduler.worker_restarts`` →
``scheduler_worker_restarts_total``), counters get the ``_total``
suffix, histograms expose ``_count``/``_sum`` as a summary plus
``_min``/``_max`` gauges, and campaign-level derived values are
``campaign_*`` gauges.

The server is deliberately read-only and unauthenticated — it binds
to localhost by default and exposes nothing but telemetry. It is
started/stopped by :func:`repro.obs.session` (``--serve-obs PORT``)
and by ``mp-stream obs serve --journal`` for watching a campaign from
outside the process.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping

from . import metrics as obs_metrics
from .health import CampaignHealth, campaign_health

__all__ = ["ObsServer", "prometheus_text", "PROM_CONTENT_TYPE"]

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _prom_name(name: str) -> str:
    """A registry metric name as a valid Prometheus metric name."""
    out = "".join(ch if (ch.isascii() and ch.isalnum()) or ch == "_" else "_"
                  for ch in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out or "_"


def _prom_value(value: object) -> str:
    number = float(value)  # type: ignore[arg-type]
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def prometheus_text(
    snapshot: Mapping[str, Mapping[str, object]] | None,
    health: CampaignHealth | None = None,
) -> str:
    """Render a registry snapshot (+ campaign gauges) as Prometheus
    text exposition format 0.0.4."""
    lines: list[str] = []

    def sample(name: str, kind: str, value: object) -> None:
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {_prom_value(value)}")

    snapshot = snapshot or {}
    for name, value in sorted(snapshot.get("counters", {}).items()):  # type: ignore[union-attr]
        prom = _prom_name(name)
        if not prom.endswith("_total"):
            prom += "_total"
        sample(prom, "counter", value)
    for name, hist in sorted(snapshot.get("histograms", {}).items()):  # type: ignore[union-attr]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        lines.append(f"{prom}_count {_prom_value(hist['count'])}")  # type: ignore[index]
        lines.append(f"{prom}_sum {_prom_value(hist['total'])}")  # type: ignore[index]
        sample(prom + "_min", "gauge", hist["min"])  # type: ignore[index]
        sample(prom + "_max", "gauge", hist["max"])  # type: ignore[index]
    if health is not None:
        for name, value in sorted(health.gauges().items()):
            sample(_prom_name(name), "gauge", value)
    sample("up", "gauge", 1)
    return "\n".join(lines) + "\n"


def _default_registry_snapshot() -> Mapping[str, Mapping[str, object]] | None:
    registry = obs_metrics.active_registry()
    return registry.snapshot() if registry is not None else None


class _ObsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    obs: "ObsServer"


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args: object) -> None:  # keep stderr clean
        return None

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        obs: ObsServer = self.server.obs  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                body = prometheus_text(obs.registry_source(), obs.health_source())
                self._reply(200, PROM_CONTENT_TYPE, body)
            elif path == "/health":
                health = obs.health_source()
                payload: dict[str, object] = {"status": "ok"}
                if health is not None:
                    payload["campaign"] = health.verdict
                    payload["ok"] = health.ok
                self._reply(200, "application/json", json.dumps(payload))
            elif path == "/campaign":
                health = obs.health_source()
                if health is None:
                    self._reply(
                        404,
                        "application/json",
                        json.dumps({"error": "no campaign is being observed"}),
                    )
                else:
                    self._reply(
                        200,
                        "application/json",
                        json.dumps(health.to_json(), sort_keys=True),
                    )
            else:
                self._reply(404, "text/plain", "unknown path; try /metrics /health /campaign")
        except Exception as exc:  # a scrape must never kill the campaign
            self._reply(500, "text/plain", f"{type(exc).__name__}: {exc}")

    def _reply(self, status: int, ctype: str, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class ObsServer:
    """A background-thread HTTP exposition server.

    ``port=0`` binds an ephemeral port (the bound one is in
    :attr:`port`/:attr:`url`). The sources default to the process-wide
    active registry and campaign — scrapes always see the live state —
    and can be overridden for journal-watcher mode.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        *,
        registry_source: Callable[
            [], Mapping[str, Mapping[str, object]] | None
        ] | None = None,
        health_source: Callable[[], CampaignHealth | None] | None = None,
    ):
        self.registry_source = registry_source or _default_registry_snapshot
        self.health_source = health_source or campaign_health
        self._httpd = _ObsHTTPServer((host, port), _Handler)
        self._httpd.obs = self
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="obs-server", daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._httpd.server_close()
        self._httpd = None  # type: ignore[assignment]

    def __enter__(self) -> "ObsServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
