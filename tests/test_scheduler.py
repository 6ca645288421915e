"""The campaign scheduler/executor layer (repro.core.scheduler).

The acceptance criterion for the whole layer is *differential*: a
campaign's :class:`ResultSet` must be fingerprint-identical whichever
backend ran it — serial, or a process pool whose workers are being
killed mid-point by injected ``worker_crash`` faults — and across a
mid-sweep kill/resume. Everything else here (restart budgets, dedup,
durable journals, progress-error containment, counter relay, device
transport) is the supporting machinery that makes that invariant hold.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core import (
    BenchmarkRunner,
    CampaignScheduler,
    ExecutionEngine,
    LoopManagement,
    ParameterSweep,
    SweepJournal,
    TuningParameters,
    explore,
    make_executor,
    point_fingerprint,
)
from repro.core.scheduler import ProcessExecutor, Task
from repro.devices.custom import device_from_dict
from repro.errors import SweepError, WorkerCrashError, failure_kind
from repro.faults import FaultPlan
from repro.obs import metrics as obs_metrics
from repro.units import KIB

AXES = {
    "vector_width": [1, 2, 4],
    "array_bytes": [32 * KIB, 64 * KIB],
}


def _sweep() -> ParameterSweep:
    return ParameterSweep(
        base=TuningParameters(array_bytes=32 * KIB), axes=AXES
    )


def _engine(faults: str | None = None, **kw) -> ExecutionEngine:
    kw.setdefault("ntimes", 1)
    if faults is not None:
        kw["faults"] = FaultPlan.parse(faults)
    return ExecutionEngine("gpu", **kw)


def _fps(results) -> list[str]:
    return [r.fingerprint() for r in results]


def _crash_schedule(plan: FaultPlan, keys: list[str], budget: int) -> list[int]:
    """How many times each point crashes before running (or gives up)."""
    out = []
    for key in keys:
        crashes = 0
        while crashes <= budget and plan.should_fire("worker_crash", key, crashes):
            crashes += 1
        out.append(crashes)
    return out


def _find_requeue_seed() -> str:
    """A fault spec where >= 1 point crashes once then succeeds, and no
    point exhausts the default restart budget — deterministically."""
    from repro.core import point_fingerprint

    keys = [
        point_fingerprint("gpu", p) for p in _sweep().points()
    ]
    for seed in range(200):
        spec = f"worker_crash=0.5,seed={seed}"
        sched = _crash_schedule(FaultPlan.parse(spec), keys, budget=2)
        if any(c == 1 for c in sched) and all(c <= 2 for c in sched):
            return spec
    raise AssertionError("no suitable seed in range")  # pragma: no cover


class TestDifferentialBackends:
    def test_serial_thread_process_identical(self):
        # serial against process pools of two widths
        serial = explore(_engine(), _sweep(), backend="serial")
        wide = explore(_engine(), _sweep(), jobs=3, backend="process")
        process = explore(_engine(), _sweep(), jobs=2, backend="process")
        assert len(serial) == len(wide) == len(process) == 6
        assert _fps(serial) == _fps(wide) == _fps(process)
        assert [r.params for r in serial] == [r.params for r in process]

    def test_identical_under_injected_crashes(self):
        spec = "worker_crash=0.5,seed=3"
        runs = {
            backend: explore(
                _engine(spec), _sweep(), jobs=2, backend=backend
            )
            for backend in ("serial", "process")
        }
        assert _fps(runs["process"]) == _fps(runs["serial"])

    def test_crash_survivors_match_faultless_run(self, counters):
        """A point that crashes then succeeds measures exactly what it
        would have measured with no fault at all."""
        spec = _find_requeue_seed()
        clean = explore(_engine(), _sweep())
        scheduler = CampaignScheduler(_engine(spec), backend="process", jobs=2)
        crashed = scheduler.run(list(_sweep().points()))
        assert counters()["scheduler.crashes"] >= 1
        health = scheduler.health_snapshot()
        assert health.requeues == counters()["scheduler.requeues"] >= 1
        assert health.crash_failures == 0
        assert all(r.ok for r in crashed)
        assert _fps(crashed) == _fps(clean)

    def test_restart_budget_exhaustion_is_deterministic_data(self):
        spec = "worker_crash=1.0,seed=9"
        serial = explore(_engine(spec), _sweep(), max_worker_restarts=1)
        process = explore(
            _engine(spec), _sweep(), jobs=2, backend="process",
            max_worker_restarts=1,
        )
        for results in (serial, process):
            assert len(results) == 6
            assert all(r.failure_kind == "worker_crash" for r in results)
            assert all("restart budget" in r.error for r in results)
            assert all(not r.times for r in results)
        assert _fps(serial) == _fps(process)

    def test_crash_detail_is_provenance_not_measurement(self):
        spec = "worker_crash=1.0,seed=9"
        result = explore(_engine(spec), _sweep(), max_worker_restarts=0)[0]
        assert result.detail["scheduler"]["restarts"] == 0
        assert "scheduler" not in result.fingerprint()


class TestResume:
    def test_mid_sweep_resume_per_backend(self, tmp_path):
        fresh = explore(_engine(), _sweep())
        for backend in ("serial", "process"):
            journal = SweepJournal(tmp_path / f"{backend}.jsonl")
            partial = ParameterSweep(
                base=TuningParameters(array_bytes=32 * KIB),
                axes={"vector_width": [1, 2, 4]},
            )
            explore(_engine(), partial, jobs=2, backend=backend,
                    journal=journal)
            assert journal.executed == 3
            resumed = explore(_engine(), _sweep(), jobs=2, backend=backend,
                              journal=journal, resume=True)
            assert journal.reused == 3
            assert _fps(resumed) == _fps(fresh)

    def test_resume_after_crash_failures_restores_them(self, tmp_path):
        spec = "worker_crash=1.0,seed=9"
        journal = SweepJournal(tmp_path / "crashes.jsonl")
        first = explore(_engine(spec), _sweep(), max_worker_restarts=0,
                        journal=journal)
        resumed = explore(_engine(spec), _sweep(), max_worker_restarts=0,
                          journal=journal, resume=True)
        assert journal.reused == 6 and journal.discarded == 0
        assert _fps(resumed) == _fps(first)

    def test_resume_requires_journal(self):
        with pytest.raises(SweepError, match="requires a journal"):
            explore(_engine(), _sweep(), resume=True)


class TestJournalDurability:
    def test_durable_journal_fsyncs_every_record(self, tmp_path, monkeypatch):
        import repro.core.history as history

        synced: list[int] = []
        monkeypatch.setattr(history.os, "fsync", lambda fd: synced.append(fd))
        journal = SweepJournal(tmp_path / "durable.jsonl", durable=True)
        explore(_engine(), _sweep(), journal=journal)
        # one fsync per record, plus the parent-directory fsync on first
        # append — without it a crash after creation can lose the file
        assert len(synced) == 7

    def test_default_journal_does_not_fsync(self, tmp_path, monkeypatch):
        import repro.core.history as history

        synced: list[int] = []
        monkeypatch.setattr(history.os, "fsync", lambda fd: synced.append(fd))
        journal = SweepJournal(tmp_path / "plain.jsonl")
        explore(_engine(), _sweep(), journal=journal)
        assert synced == []
        assert journal.durable is False


class TestSchedulerPolicy:
    def test_jobs_validation(self):
        for jobs in (0, -2):
            with pytest.raises(SweepError, match="jobs must be >= 1"):
                CampaignScheduler(_engine(), jobs=jobs)
        with pytest.raises(SweepError, match="jobs must be >= 1"):
            make_executor("process", jobs=0)

    def test_restart_budget_validation(self):
        with pytest.raises(SweepError, match="max_worker_restarts"):
            CampaignScheduler(_engine(), max_worker_restarts=-1)

    def test_backend_validation(self):
        with pytest.raises(SweepError, match="unknown execution backend"):
            CampaignScheduler(_engine(), backend="mpi")
        with pytest.raises(SweepError, match="unknown execution backend"):
            make_executor("mpi")

    def test_thread_backend_refused(self):
        # the thread pool is gone: asking for it names what is left
        with pytest.raises(SweepError, match="valid: serial, process"):
            explore(_engine(), _sweep(), jobs=2, backend="thread")
        with pytest.raises(SweepError, match="valid: serial, process"):
            make_executor("thread", jobs=2)

    def test_auto_backend_selection(self):
        sched = CampaignScheduler(_engine(), jobs=4)
        sched.run(list(_sweep().points()))
        assert sched.backend_used == "process"
        sched = CampaignScheduler(_engine())
        sched.run(list(_sweep().points()))
        assert sched.backend_used == "serial"
        # a single point never pays for a pool
        sched = CampaignScheduler(_engine(), jobs=4)
        sched.run([TuningParameters(array_bytes=32 * KIB)])
        assert sched.backend_used == "serial"

    def test_dedup_by_fingerprint(self, tmp_path, counters):
        journal = SweepJournal(tmp_path / "dedup.jsonl")
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=32 * KIB),
            axes={"vector_width": [1, 1]},
        )
        seen: list = []
        scheduler = CampaignScheduler(
            _engine(), journal=journal, progress=seen.append
        )
        results = scheduler.run(list(sweep.points()))
        assert len(results) == 2
        assert results[0].fingerprint() == results[1].fingerprint()
        assert counters()["scheduler.deduped"] == 1
        assert journal.executed == 1  # the twin never re-ran
        assert len(seen) == 2  # but progress still saw both grid points

    def test_progress_error_does_not_kill_campaign(self, counters):
        calls: list[int] = []

        def bad_progress(result) -> None:
            calls.append(1)
            raise RuntimeError("reporter bug")

        scheduler = CampaignScheduler(_engine(), progress=bad_progress)
        results = scheduler.run(list(_sweep().points()))
        assert len(results) == 6
        assert len(calls) == 6  # still called for every point
        assert counters()["scheduler.progress_errors"] == 6

    def test_engine_bug_still_aborts_campaign(self):
        class BombEngine:
            target = "gpu"

            def run(self, params):
                raise RuntimeError("engine bug")

        with pytest.raises(SweepError, match=r"grid point \d+ .*engine bug"):
            CampaignScheduler(BombEngine(), backend="serial").run(
                list(_sweep().points())
            )

    def test_worker_crash_failure_kind_taxonomy(self):
        assert failure_kind(WorkerCrashError("boom")) == "worker_crash"


class TestProcessExecutor:
    def test_requires_a_real_engine(self):
        class DuckEngine:
            target = "gpu"

        with pytest.raises(SweepError, match="process backend"):
            with ProcessExecutor(jobs=1).session(DuckEngine()):
                pass  # pragma: no cover

    def test_worker_stats_merged_into_parent(self, counters):
        engine = _engine()
        explore(engine, _sweep(), jobs=2, backend="process")
        stats = counters()
        assert stats["engine.points"] == 6
        assert stats["engine.failures"] == 0
        histograms = obs_metrics.active_registry().snapshot()["histograms"]
        execute_s = histograms["engine.stage_s_per_point.execute"]
        assert execute_s["count"] == 6 and execute_s["total"] > 0

    def test_stats_fold_incrementally_and_survive_worker_kills(self):
        """Child counters arrive as per-point telemetry batches, not
        only at clean shutdown — a kill -9'd worker loses at most its
        in-flight point, so serial and process counts agree even under
        injected ``worker_crash`` faults. Launch faults make every
        compared counter non-zero."""
        spec = _find_requeue_seed() + ",launch=0.4"
        serial_registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(serial_registry):
            explore(_engine(spec), _sweep(), backend="serial")
        process_registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(process_registry):
            scheduler = CampaignScheduler(_engine(spec), backend="process", jobs=2)
            scheduler.run(list(_sweep().points()))
        serial_stats = serial_registry.snapshot()["counters"]
        process_stats = process_registry.snapshot()["counters"]
        # workers actually died mid-campaign
        assert process_stats["scheduler.worker_restarts"] >= 1
        for counter in (
            "engine.points",
            "engine.failures",
            "engine.retries",
            "scheduler.crashes",
            "scheduler.requeues",
        ):
            assert serial_stats[counter] > 0, counter
            assert process_stats[counter] == serial_stats[counter], counter
        assert process_stats["engine.points"] == 6

    @pytest.mark.parametrize("short_name", ["gpu", "myboard"])
    def test_custom_device_crosses_process_boundary(self, short_name):
        """Workers rebuild the parent's device from its model class and
        spec: a custom board measures the same on both backends, whether
        its tag is unknown to the registry or shadows a stock device."""

        def engine() -> ExecutionEngine:
            board = device_from_dict({
                "kind": "gpu",
                "short_name": short_name,
                "name": "Custom test board",
                "vendor": "Acme",
                "peak_bandwidth_gbs": 20.0,
            })
            return ExecutionEngine(board, ntimes=1)

        serial = explore(engine(), _sweep())
        process = explore(engine(), _sweep(), jobs=2, backend="process")
        assert all(r.ok for r in process)
        assert _fps(process) == _fps(serial)
        # and the board really is not the stock GPU model
        stock = explore(_engine(), _sweep())
        assert [r.bandwidth_gbs for r in serial] != [r.bandwidth_gbs for r in stock]

    def test_worker_spec_pickles_for_every_device(self):
        from repro.ocl.platform import get_platforms

        devices = [
            d for p in get_platforms(include_future=True) for d in p.devices
        ]
        devices.append(device_from_dict({
            "kind": "fpga", "short_name": "myboard", "name": "My board",
            "vendor": "Altera", "peak_bandwidth_gbs": 34.1,
        }))
        assert len(devices) == 7
        for device in devices:
            spec = pickle.loads(pickle.dumps(ExecutionEngine(device).worker_spec()))
            rebuilt = ExecutionEngine.from_worker_spec(spec).device
            assert type(rebuilt.model) is type(device.model)
            assert rebuilt.model.spec == device.model.spec

    def test_worker_status_reports_liveness(self):
        engine = _engine()
        executor = ProcessExecutor(jobs=2)
        with executor.session(engine) as session:
            status = session.worker_status()
            assert len(status) == 2
            assert {w["worker"] for w in status} == {"worker-0", "worker-1"}
            assert all(w["alive"] for w in status)
            assert all(isinstance(w["pid"], int) for w in status)

    def test_freed_worker_gets_next_point_before_outcome_returns(self):
        # the parent journals and reports a point after next_outcome
        # returns it; the worker must not wait for that to get more work
        points = list(_sweep().points())[:2]
        tasks = [
            Task(index=i, key=point_fingerprint("gpu", p), params=p)
            for i, p in enumerate(points)
        ]
        with ProcessExecutor(jobs=1).session(_engine()) as session:
            for task in tasks:
                session.submit(task)
            assert session.worker_status()[0]["point"] == tasks[0].key
            first = session.next_outcome()
            assert first.task == tasks[0]
            assert session.worker_status()[0]["point"] == tasks[1].key
            assert session.next_outcome().task == tasks[1]

    def test_journal_written_by_parent_survives_worker_kills(self, tmp_path):
        spec = _find_requeue_seed()
        journal = SweepJournal(tmp_path / "j.jsonl", durable=True)
        results = explore(_engine(spec), _sweep(), jobs=2, backend="process",
                          journal=journal)
        records = [
            json.loads(line)
            for line in journal.path.read_text().splitlines()
        ]
        assert len(records) == len(results) == 6
        assert {r["fingerprint"] for r in records} == set(_fps(results))

    def test_executor_names_and_factory(self):
        assert make_executor("serial").name == "serial"
        assert isinstance(make_executor("process", jobs=3), ProcessExecutor)
        assert make_executor("process", jobs=2).jobs == 2


class TestSearchThroughScheduler:
    """Model-guided search as a scheduler client: its measured tier is
    one scheduler batch, so its trajectory must be bit-identical
    whichever backend measured it, under injected faults, and across
    resume."""

    AXES = {
        "loop": list(LoopManagement),
        "vector_width": [1, 2, 4, 8],
        "unroll": [1, 2],
    }

    def _seed(self) -> TuningParameters:
        return TuningParameters(array_bytes=64 * KIB)

    def _search(self, runner, **kw):
        from repro.core import multifidelity_search

        return multifidelity_search(
            runner, self.AXES, seed=self._seed(), budget=6, **kw
        )

    def test_trajectory_identical_across_backends(self):
        serial = self._search(BenchmarkRunner("aocl", ntimes=1))
        process = self._search(
            BenchmarkRunner("aocl", ntimes=1), jobs=2, backend="process"
        )
        auto = self._search(  # jobs > 1 picks the process pool
            BenchmarkRunner("aocl", ntimes=1), jobs=3
        )
        for other in (process, auto):
            assert serial.trajectory_fingerprint() == other.trajectory_fingerprint()
            assert serial.rung_fingerprints() == other.rung_fingerprints()
            assert serial.best.fingerprint() == other.best.fingerprint()
            assert serial.spent == other.spent

    def test_trajectory_identical_under_injected_faults(self):
        """Crash-killed workers and transient compile faults requeue/
        retry inside the scheduler; the search trajectory cannot see
        them."""
        clean = self._search(BenchmarkRunner("aocl", ntimes=1))
        faults = FaultPlan.parse("worker_crash=0.4,compile=0.3,seed=5")
        faulty = self._search(
            BenchmarkRunner("aocl", ntimes=1, faults=faults),
            jobs=2,
            backend="process",
            max_worker_restarts=3,
        )
        assert faulty.trajectory_fingerprint() == clean.trajectory_fingerprint()
        assert faulty.rung_fingerprints() == clean.rung_fingerprints()
        assert faulty.best.fingerprint() == clean.best.fingerprint()

    def test_journal_resume_replays_trajectory(self, tmp_path):
        journal_path = tmp_path / "search.jsonl"
        first = self._search(
            BenchmarkRunner("aocl", ntimes=1), journal=journal_path
        )
        journal = SweepJournal(journal_path)
        resumed = self._search(
            BenchmarkRunner("aocl", ntimes=1), journal=journal, resume=True
        )
        assert journal.reused == first.spent
        assert journal.executed == 0  # nothing re-ran
        assert resumed.trajectory_fingerprint() == first.trajectory_fingerprint()
        assert resumed.rung_fingerprints() == first.rung_fingerprints()
        assert resumed.best.fingerprint() == first.best.fingerprint()
        assert resumed.spent == first.spent
