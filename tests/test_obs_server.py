"""Campaign health aggregation and the live exposition server.

Covers the Prometheus text rendering (naming conventions, structural
validity), the stdlib HTTP server's three endpoints, the health
verdict rules, the journal-watcher path (``health_from_journal`` /
``scan_results`` — read-only against a live campaign), and the
``serve=`` wiring in :func:`repro.obs.session`.
"""

from __future__ import annotations

import json
import re
import signal
import urllib.request
from types import SimpleNamespace

import pytest

from repro import obs
from repro.core import (
    CampaignScheduler,
    ExecutionEngine,
    ParameterSweep,
    SweepJournal,
    TuningParameters,
    explore,
)
from repro.core.history import scan_results
from repro.core.scheduler import campaign as campaign_module
from repro.obs import health as obs_health
from repro.obs import metrics as obs_metrics
from repro.obs.server import PROM_CONTENT_TYPE, _prom_name
from repro.units import KIB

SAMPLE_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]* -?\d+(\.\d+)?(e-?\d+)?$")


def _sweep() -> ParameterSweep:
    return ParameterSweep(
        base=TuningParameters(array_bytes=32 * KIB),
        axes={"vector_width": [1, 2]},
    )


def _four_points() -> list[TuningParameters]:
    return [
        TuningParameters(array_bytes=32 * KIB, vector_width=w) for w in (1, 2, 4, 8)
    ]


def _engine(**kw) -> ExecutionEngine:
    kw.setdefault("ntimes", 1)
    return ExecutionEngine("cpu", **kw)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


def assert_valid_exposition(text: str) -> dict[str, float]:
    """Parse Prometheus text format 0.0.4 strictly; return the samples."""
    samples: dict[str, float] = {}
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split()
            assert len(parts) == 4 and parts[3] in {"counter", "gauge", "summary"}
            continue
        assert SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
        name, value = line.split()
        samples[name] = float(value)
    assert samples.get("up") == 1.0
    return samples


# --------------------------------------------------------------------------
# prometheus rendering
# --------------------------------------------------------------------------


class TestPrometheusText:
    def test_naming_conventions(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("scheduler.worker_restarts").inc(3)
        reg.histogram("engine.stage_s_per_point.execute").observe(0.5)
        samples = assert_valid_exposition(obs.prometheus_text(reg.snapshot()))
        assert samples["scheduler_worker_restarts_total"] == 3
        assert samples["engine_stage_s_per_point_execute_count"] == 1
        assert samples["engine_stage_s_per_point_execute_sum"] == 0.5
        assert samples["engine_stage_s_per_point_execute_min"] == 0.5
        assert samples["engine_stage_s_per_point_execute_max"] == 0.5

    def test_campaign_gauges_rendered(self):
        health = obs_health.CampaignHealth(
            verdict="healthy", points_total=10, points_done=4, queue_depth=6,
            eta_s=12.5, cache_hit_rate=0.75,
        )
        samples = assert_valid_exposition(obs.prometheus_text(None, health))
        assert samples["campaign_points_planned"] == 10
        assert samples["campaign_points_done"] == 4
        assert samples["campaign_queue_depth"] == 6
        assert samples["campaign_eta_seconds"] == 12.5
        assert samples["campaign_cache_hit_rate"] == 0.75
        assert samples["campaign_healthy"] == 1

    def test_empty_snapshot_still_valid(self):
        samples = assert_valid_exposition(obs.prometheus_text(None))
        assert samples == {"up": 1.0}

    def test_name_sanitization(self):
        assert _prom_name("memsim.dram.row-hit%") == "memsim_dram_row_hit_"
        assert _prom_name("0weird") == "_0weird"


# --------------------------------------------------------------------------
# health verdicts and snapshots
# --------------------------------------------------------------------------


class TestCampaignHealth:
    def test_verdict_rules(self):
        v = obs_health.derive_verdict
        assert v(points_total=0, executed=0, failed=0) == "idle"
        assert v(points_total=4, executed=2, failed=0) == "healthy"
        assert v(points_total=4, executed=2, failed=1) == "degraded"
        assert v(points_total=4, executed=2, failed=2) == "failing"
        assert v(points_total=4, executed=2, failed=0, journal_degraded=True) == "degraded"
        assert (
            v(points_total=4, executed=2, failed=2, interrupted="SIGTERM")
            == "interrupted"
        )

    def test_ok_and_json_round_trip(self):
        health = obs_health.CampaignHealth(verdict="failing")
        assert not health.ok
        doc = json.loads(json.dumps(health.to_json()))
        assert doc["verdict"] == "failing" and doc["ok"] is False

    def test_scheduler_registers_itself_and_snapshots_after_run(self, counters):
        scheduler = CampaignScheduler(_engine(), backend="serial")
        assert obs_health.active_campaign_source() == scheduler.health_snapshot
        scheduler.run(list(_sweep().points()))
        health = obs_health.campaign_health()
        assert health is not None
        assert health.verdict == "healthy"
        assert health.points_total == health.points_done == 2
        assert health.points_failed == 0
        assert health.queue_depth == 0
        assert health.backend == "serial"
        assert health.elapsed_s > 0
        assert health.rate_points_per_s > 0
        assert health.cache_hit_rate is not None

    def test_cache_hit_rate_counts_this_campaign(self):
        # two sizes of one NDRange kernel share its source: 1 miss, 1 hit
        points = [TuningParameters(array_bytes=n * KIB) for n in (32, 64)]
        scheduler = CampaignScheduler(_engine(), backend="serial")
        scheduler.run(points)
        assert scheduler.health_snapshot().cache_hit_rate is None
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(registry):
            scheduler = CampaignScheduler(_engine(), backend="serial")
            assert scheduler.health_snapshot().cache_hit_rate is None
            assert len(registry) == 0  # reading counted nothing
            scheduler.run(points)
            assert scheduler.health_snapshot().cache_hit_rate == 0.5
            # a second campaign under the same registry counts only its
            # own lookups: a fresh engine misses once, then hits once on
            # its second batch
            second = CampaignScheduler(_engine(), backend="serial")
            assert second.health_snapshot().cache_hit_rate is None
            second.run(points[:1])
            assert second.health_snapshot().cache_hit_rate == 0.0
            second.run(points[:1])
            assert second.health_snapshot().cache_hit_rate == 0.5
            assert scheduler.health_snapshot().cache_hit_rate == 0.5
        # readable after the registry's scope ends, for post-mortem
        assert second.health_snapshot().cache_hit_rate == 0.5

    def test_snapshot_counts_failures_by_kind(self):
        from repro.faults import FaultPlan

        scheduler = CampaignScheduler(
            _engine(verify=True, faults=FaultPlan.parse("verify=1.0,seed=1")),
            backend="serial",
        )
        results = scheduler.run(list(_sweep().points()))
        assert all(not r.ok for r in results)
        health = scheduler.health_snapshot()
        assert health.verdict == "failing" and not health.ok
        assert health.failure_kinds == {"verify_mismatch": 2}

    def test_finished_batch_reads_the_same_rate_later(self, monkeypatch):
        # the scheduler's clock advances 1 s per finished point, and
        # another 60 s after the batch
        now = [0.0]
        monkeypatch.setattr(
            campaign_module, "time", SimpleNamespace(monotonic=lambda: now[0])
        )

        def tick(_result) -> None:
            now[0] += 1.0

        scheduler = CampaignScheduler(_engine(), backend="serial", progress=tick)
        scheduler.run(_four_points())
        done = scheduler.health_snapshot()
        now[0] += 60.0
        later = scheduler.health_snapshot()
        assert done.elapsed_s == later.elapsed_s == 4.0
        assert done.rate_points_per_s == later.rate_points_per_s == 1.0
        assert later.eta_s == done.eta_s

    def test_drain_leaves_no_queue(self):
        scheduler: CampaignScheduler

        def drain(_result) -> None:
            scheduler._on_signal(signal.SIGTERM, None)

        scheduler = CampaignScheduler(_engine(), backend="serial", progress=drain)
        results = scheduler.run(_four_points())
        health = scheduler.health_snapshot()
        assert len(results) == 1 and scheduler.cancelled == 3
        assert health.verdict == "interrupted"
        assert health.queue_depth == 0

    def test_journal_state_in_snapshot(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.wal")
        scheduler = CampaignScheduler(_engine(), backend="serial", journal=journal)
        scheduler.run(list(_sweep().points()))
        health = scheduler.health_snapshot()
        assert health.journal is not None
        assert health.journal["executed"] == 2
        assert health.journal["degraded"] is False


# --------------------------------------------------------------------------
# journal watching (read-only)
# --------------------------------------------------------------------------


class TestJournalWatching:
    def test_scan_results_reads_without_side_effects(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.wal")
        results = explore(_engine(), _sweep(), journal=journal)
        before = journal.path.read_bytes()
        scanned = scan_results(journal.path)
        assert journal.path.read_bytes() == before  # strictly read-only
        assert len(scanned) == 2
        assert {r.fingerprint() for r in scanned.values()} == {
            r.fingerprint() for r in results
        }

    def test_health_from_journal(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.wal")
        explore(_engine(), _sweep(), journal=journal)
        health = obs_health.health_from_journal(journal.path)
        assert health.verdict == "healthy"
        assert health.points_total == health.points_done == 2
        assert health.target == "cpu"
        assert health.journal is not None and health.journal["clean"]

    def test_health_from_missing_journal_is_idle(self, tmp_path):
        health = obs_health.health_from_journal(tmp_path / "nope.wal")
        assert health.verdict == "idle"
        assert health.points_total == 0


# --------------------------------------------------------------------------
# the HTTP server
# --------------------------------------------------------------------------


class TestObsServer:
    def test_endpoints(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("scheduler.worker_restarts").inc(2)
        health = obs_health.CampaignHealth(
            verdict="healthy", points_total=3, points_done=1
        )
        with obs.ObsServer(
            port=0,
            registry_source=reg.snapshot,
            health_source=lambda: health,
        ) as server:
            status, headers, body = _get(server.url + "/metrics")
            assert status == 200
            assert headers["Content-Type"] == PROM_CONTENT_TYPE
            samples = assert_valid_exposition(body)
            assert samples["scheduler_worker_restarts_total"] == 2
            assert samples["campaign_points_planned"] == 3

            status, _, body = _get(server.url + "/health")
            assert status == 200
            doc = json.loads(body)
            assert doc == {"status": "ok", "campaign": "healthy", "ok": True}

            status, _, body = _get(server.url + "/campaign")
            assert status == 200
            doc = json.loads(body)
            assert doc["points_total"] == 3 and doc["ok"] is True

    def test_unknown_path_404(self):
        with obs.ObsServer(port=0, health_source=lambda: None) as server:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _get(server.url + "/nope")
            assert exc_info.value.code == 404

    def test_campaign_404_when_no_source(self):
        with obs.ObsServer(
            port=0, registry_source=lambda: None, health_source=lambda: None
        ) as server:
            status, _, body = _get(server.url + "/health")
            assert status == 200 and json.loads(body) == {"status": "ok"}
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _get(server.url + "/campaign")
            assert exc_info.value.code == 404

    def test_close_is_idempotent_and_releases_port(self):
        server = obs.ObsServer(port=0, health_source=lambda: None)
        url = server.url
        server.close()
        server.close()
        with pytest.raises(OSError):
            _get(url + "/health")


# --------------------------------------------------------------------------
# session wiring
# --------------------------------------------------------------------------


class TestSessionServe:
    def test_serve_implies_in_memory_registry(self):
        with obs.session(serve=0) as session:
            assert session.server is not None
            assert session.registry is not None
            assert obs_metrics.active_registry() is session.registry
            obs_metrics.count("engine.points")
            _, _, body = _get(session.server.url + "/metrics")
            assert assert_valid_exposition(body)["engine_points_total"] == 1
        assert session.written == []  # in-memory registry: no artifact
        url = session.server.url
        with pytest.raises(OSError):
            _get(url + "/metrics")  # server stopped with the session

    def test_live_scrape_during_campaign(self):
        """A scrape taken mid-run sees the live campaign state."""
        seen: list[dict] = []
        with obs.session(serve=0) as session:
            url = session.server.url

            def scrape_progress(result) -> None:
                _, _, body = _get(url + "/campaign")
                seen.append(json.loads(body))

            scheduler = CampaignScheduler(
                _engine(), backend="serial", progress=scrape_progress
            )
            scheduler.run(list(_sweep().points()))
        assert len(seen) == 2
        assert [d["points_done"] for d in seen] == [1, 2]
        assert all(d["verdict"] == "healthy" for d in seen)
