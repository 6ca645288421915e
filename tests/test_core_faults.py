"""Campaign resilience: fault injection, retry, watchdogs, journals."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import engine as engine_mod
from repro.core import (
    BenchmarkRunner,
    ExecutionEngine,
    FaultPlan,
    FaultSpec,
    ParameterSweep,
    SweepJournal,
    TuningParameters,
    Watchdog,
    explore,
    point_fingerprint,
)
from repro.errors import (
    BenchmarkError,
    PointTimeoutError,
    SweepError,
    TransientError,
    failure_kind,
)
from repro.faults import (
    FAULT_SITES,
    InjectedBuildFault,
    InjectedLaunchFault,
)
from repro.units import KIB

SMALL = TuningParameters(array_bytes=32 * KIB)


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry at once: the tests below check retry outcomes, not delays."""
    monkeypatch.setattr(engine_mod, "BACKOFF_S", 0.0)


class TestFaultSpec:
    def test_parse_full(self):
        spec = FaultSpec.parse("build=0.3,launch=0.2,seed=7,stall_s=5")
        assert dict(spec.rates) == {"build": 0.3, "launch": 0.2}
        assert spec.seed == 7
        assert spec.stall_s == 5.0

    def test_parse_defaults(self):
        spec = FaultSpec.parse("readback=1.0")
        assert dict(spec.rates) == {"readback": 1.0}
        assert spec.stall_s > 0

    def test_unknown_site_rejected(self):
        with pytest.raises(BenchmarkError, match="unknown fault site"):
            FaultSpec.parse("bitflip=0.5")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(BenchmarkError, match=r"\[0, 1\]"):
            FaultSpec.parse("build=1.5")

    def test_bad_token_rejected(self):
        with pytest.raises(BenchmarkError, match="SITE=RATE"):
            FaultSpec.parse("build")

    def test_bad_value_rejected(self):
        with pytest.raises(BenchmarkError, match="bad fault spec value"):
            FaultSpec.parse("build=lots")

    def test_describe_roundtrips_sites(self):
        text = FaultSpec.parse("launch=0.25,build=0.5,seed=3").describe()
        assert "build=0.5" in text and "launch=0.25" in text and "seed=3" in text


class TestFaultPlan:
    def test_draws_are_deterministic_and_order_free(self):
        plan = FaultPlan.parse("launch=0.5,seed=11")
        a = [plan.should_fire("launch", f"k{i}", 0) for i in range(50)]
        b = [plan.should_fire("launch", f"k{i}", 0) for i in reversed(range(50))]
        assert a == list(reversed(b))
        assert any(a) and not all(a)  # rate 0.5 actually discriminates

    def test_draws_vary_by_site_and_attempt(self):
        plan = FaultPlan.parse(",".join(f"{s}=0.5" for s in FAULT_SITES) + ",seed=2")
        key = "samepoint"
        per_site = {s: plan.should_fire(s, key, 0) for s in FAULT_SITES}
        per_attempt = [plan.should_fire("launch", key, a) for a in range(20)]
        assert len(set(per_site.values())) == 2  # sites decide independently
        assert len(set(per_attempt)) == 2  # retries see fresh draws

    def test_check_raises_typed_transient_errors(self):
        plan = FaultPlan.parse("build=1.0,launch=1.0")
        with pytest.raises(InjectedBuildFault):
            plan.check("build", "k", 0)
        with pytest.raises(InjectedLaunchFault):
            plan.check("launch", "k", 0)
        assert issubclass(InjectedBuildFault, TransientError)
        plan.check("readback", "k", 0)  # rate 0: no-op

    def test_corrupt_readback_flips_one_byte(self):
        plan = FaultPlan.parse("readback=1.0,seed=5")
        arr = np.ones(64, dtype=np.float64)
        assert plan.corrupt_readback("k", 0, arr)
        assert (arr != 1.0).sum() == 1
        clean = FaultPlan.parse("readback=0.0")
        arr2 = np.ones(8, dtype=np.float64)
        assert not clean.corrupt_readback("k", 0, arr2)
        assert (arr2 == 1.0).all()

    def test_stall_checkpoint_can_cancel(self):
        plan = FaultPlan.parse("stall=1.0,stall_s=30")
        calls = []

        def checkpoint():
            calls.append(1)
            if len(calls) >= 2:
                raise PointTimeoutError("budget blown")

        with pytest.raises(PointTimeoutError):
            plan.stall("k", 0, checkpoint)
        assert len(calls) == 2  # cancelled long before stall_s elapsed


class TestRetry:
    def test_transient_launch_absorbed_and_instrumented(self, no_backoff):
        # launch=1.0 fires on every attempt; 3 retries means attempt 3
        # (the 4th) must run clean — so fire only on attempts 0-2 via a
        # plan whose rate is 1.0 but engine retries exceed the streak.
        plan = FaultPlan.parse("launch=0.7,seed=13")
        engine = ExecutionEngine("cpu", ntimes=1, faults=plan, retries=8)
        result = engine.run(SMALL)
        assert result.ok
        eng = result.detail["engine"]
        assert eng["attempts"] >= 1
        if eng["attempts"] > 1:
            assert eng["transient_errors"]
            assert engine.stats.snapshot()["retries"] == eng["attempts"] - 1

    def test_retries_exhausted_records_failure_kind(self, no_backoff):
        plan = FaultPlan.parse("launch=1.0")
        engine = ExecutionEngine("cpu", ntimes=1, faults=plan, retries=2)
        result = engine.run(SMALL)
        assert not result.ok
        assert result.failure_kind == "launch"
        assert result.detail["engine"]["attempts"] == 3
        assert len(result.detail["engine"]["transient_errors"]) == 2

    def test_readback_corruption_is_transient(self, no_backoff):
        plan = FaultPlan.parse("readback=1.0")
        engine = ExecutionEngine("cpu", ntimes=1, faults=plan, retries=1)
        result = engine.run(SMALL)
        assert not result.ok
        assert result.failure_kind == "validation"
        assert "Injected" in str(result.detail["engine"]["transient_errors"][0])

    def test_backoff_is_deterministic_and_capped(self):
        engine = ExecutionEngine("cpu", ntimes=1)
        delays = [engine._backoff_delay("key", a) for a in range(8)]
        assert delays == [engine._backoff_delay("key", a) for a in range(8)]
        assert all(0 < d <= engine_mod.BACKOFF_CAP_S for d in delays)

    def test_negative_retries_rejected(self):
        with pytest.raises(BenchmarkError, match="retries"):
            ExecutionEngine("cpu", retries=-1)

    def test_transient_build_failure_not_cached(self):
        # build=1.0 fails every attempt; a second engine sharing the
        # cache but without faults must still build successfully — the
        # cache must not have memoized the injected failure.
        faulty = ExecutionEngine("cpu", ntimes=1,
                                 faults=FaultPlan.parse("build=1.0"),
                                 retries=0)
        bad = faulty.run(SMALL)
        assert not bad.ok and bad.failure_kind == "build"
        clean = ExecutionEngine("cpu", ntimes=1, cache=faulty.cache)
        good = clean.run(SMALL)
        assert good.ok


class TestWatchdog:
    def test_validation(self):
        with pytest.raises(BenchmarkError):
            Watchdog(wall_s=0)
        with pytest.raises(BenchmarkError):
            Watchdog(virtual_s=-1.0)
        assert not Watchdog().active
        assert Watchdog(wall_s=1.0).active

    def test_stalled_point_times_out(self):
        plan = FaultPlan.parse("stall=1.0,stall_s=30")
        engine = ExecutionEngine("cpu", ntimes=1, faults=plan, retries=0,
                                 watchdog=Watchdog(wall_s=0.2))
        result = engine.run(SMALL)
        assert not result.ok
        assert result.failure_kind == "timeout"
        assert "wall budget" in result.error

    def test_virtual_budget_cancels(self):
        engine = ExecutionEngine("cpu", ntimes=50,
                                 watchdog=Watchdog(virtual_s=1e-9))
        result = engine.run(SMALL)
        assert not result.ok
        assert result.failure_kind == "timeout"
        assert "virtual budget" in result.error

    def test_failure_kind_mapping(self):
        assert failure_kind(PointTimeoutError("x")) == "timeout"
        assert failure_kind(None) == ""
        assert failure_kind(RuntimeError("x")) == "internal"


class TestFingerprintIdentity:
    def test_faulty_run_matches_clean_run(self, no_backoff):
        # Transient faults that are fully absorbed by retries must not
        # leak into the measurement fingerprint.
        clean = ExecutionEngine("cpu", ntimes=1).run(SMALL)
        faulty = ExecutionEngine(
            "cpu", ntimes=1, retries=10,
            faults=FaultPlan.parse("build=0.5,launch=0.5,seed=3"),
        ).run(SMALL)
        assert faulty.ok
        assert faulty.fingerprint() == clean.fingerprint()


def _sweep(n=3):
    return ParameterSweep(base=SMALL, axes={"vector_width": [1, 2, 4][:n]})


class TestJournal:
    def test_resume_skips_completed_points(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        runner = BenchmarkRunner("cpu", ntimes=1)
        first = explore(runner, _sweep(), journal=SweepJournal(path))
        journal = SweepJournal(path)
        again = explore(BenchmarkRunner("cpu", ntimes=1), _sweep(),
                        journal=journal, resume=True)
        assert journal.reused == 3 and journal.executed == 0
        assert [r.fingerprint() for r in again] == [
            r.fingerprint() for r in first
        ]

    def test_interrupted_campaign_resumes_byte_identical(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        faults = "launch=0.4,readback=0.3,seed=9"
        uninterrupted = explore(
            BenchmarkRunner("cpu", ntimes=1,
                            faults=FaultPlan.parse(faults)),
            _sweep(),
        )
        # simulate a kill after the first point: journal holds one record
        journal = SweepJournal(path)
        engine = BenchmarkRunner("cpu", ntimes=1,
                                 faults=FaultPlan.parse(faults))
        points = list(_sweep().points())
        journal.record(point_fingerprint("cpu", points[0]),
                       engine.run(points[0]))
        resumed = explore(
            BenchmarkRunner("cpu", ntimes=1,
                            faults=FaultPlan.parse(faults)),
            _sweep(),
            journal=SweepJournal(path),
            resume=True,
        )
        assert [r.fingerprint() for r in resumed] == [
            r.fingerprint() for r in uninterrupted
        ]

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        explore(BenchmarkRunner("cpu", ntimes=1), _sweep(2),
                journal=SweepJournal(path))
        text = path.read_text()
        path.write_text(text + '{"schema": 1, "point": "tru')
        journal = SweepJournal(path)
        done = journal.load()
        assert len(done) == 2
        assert journal.discarded == 1

    def test_stale_fingerprint_discarded(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        explore(BenchmarkRunner("cpu", ntimes=1), _sweep(1),
                journal=SweepJournal(path))
        record = json.loads(path.read_text())
        record["times_s"] = [t * 2 for t in record["times_s"]]  # tampered
        path.write_text(json.dumps(record) + "\n")
        journal = SweepJournal(path)
        assert journal.load() == {}
        assert journal.discarded == 1

    def test_resume_requires_journal(self):
        with pytest.raises(SweepError, match="requires a journal"):
            explore(BenchmarkRunner("cpu", ntimes=1), _sweep(), resume=True)

    def test_journal_accepts_path_like(self, tmp_path):
        nested = tmp_path / "deep" / "dir" / "j.jsonl"
        explore(BenchmarkRunner("cpu", ntimes=1), _sweep(1),
                journal=str(nested))
        assert nested.exists()

    def test_parallel_sweep_journals_every_point(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        journal = SweepJournal(path)
        explore(BenchmarkRunner("cpu", ntimes=1), _sweep(), jobs=2,
                journal=journal)
        assert journal.executed == 3
        assert len(SweepJournal(path).load()) == 3


class TestVerifyFaultSite:
    def test_parse_accepts_verify_site(self):
        spec = FaultSpec.parse("verify=0.5,seed=3")
        assert dict(spec.rates) == {"verify": 0.5}
        assert "verify" in FAULT_SITES

    def test_verify_mismatch_is_permanent_not_transient(self):
        from repro.errors import VerifyMismatchError

        assert not issubclass(VerifyMismatchError, TransientError)
        assert failure_kind(VerifyMismatchError("x")) == "verify_mismatch"
        assert VerifyMismatchError("x", verdict={"ok": False}).verdict == {
            "ok": False
        }

    def test_injected_miscompile_flagged_not_crashed(self):
        # the verify site corrupts the *re-derived* side, so STREAM
        # validation stays green and only the verify stage can catch it
        plan = FaultPlan.parse("verify=1.0,seed=7")
        engine = ExecutionEngine("cpu", ntimes=1, verify=True,
                                 faults=plan, retries=2)
        result = engine.run(SMALL)  # returned, not raised
        assert not result.ok
        assert result.failure_kind == "verify_mismatch"
        verdict = result.detail["verify"]
        assert verdict["ok"] is False and verdict["corrupted"] is True
        assert "re-derived" in result.error
        # a miscompile reproduces on retry: no retry budget is burned
        assert result.detail["engine"]["attempts"] == 1

    def test_corrupt_verify_decisions_are_deterministic(self):
        plan = FaultPlan.parse("verify=0.5,seed=21")
        arrays = lambda: {  # noqa: E731 - tiny fixture
            n: np.ones(16, dtype=np.int32) for n in ("a", "b", "c")
        }
        draws = []
        for i in range(20):
            a = arrays()
            fired = plan.corrupt_verify(f"k{i}", 0, a)
            flipped = sum((a[n] != 1).sum() for n in a)
            assert flipped == (1 if fired else 0)
            draws.append(fired)
        assert draws == [
            FaultPlan.parse("verify=0.5,seed=21").corrupt_verify(
                f"k{i}", 0, arrays()
            )
            for i in range(20)
        ]
        assert any(draws) and not all(draws)

    def test_clean_verify_run_has_no_fault_effect(self):
        plan = FaultPlan.parse("verify=0.0")
        engine = ExecutionEngine("cpu", ntimes=1, verify=True, faults=plan)
        result = engine.run(SMALL)
        assert result.ok
        assert result.detail["verify"]["ok"] is True
        assert result.detail["verify"]["corrupted"] is False


class TestVerifyResume:
    def _runner(self, faults: str | None = None):
        return BenchmarkRunner(
            "cpu",
            ntimes=1,
            verify=True,
            faults=FaultPlan.parse(faults) if faults else None,
        )

    @staticmethod
    def _verdicts(results):
        return [json.dumps(r.detail.get("verify"), sort_keys=True) for r in results]

    def test_resumed_sweep_restores_byte_identical_verdicts(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        fresh = explore(self._runner(), _sweep())
        # simulate a kill after the first point, then resume the rest
        journal = SweepJournal(path)
        points = list(_sweep().points())
        journal.record(
            point_fingerprint("cpu", points[0]),
            self._runner().run(points[0]),
        )
        resumed = explore(
            self._runner(), _sweep(), journal=SweepJournal(path), resume=True
        )
        assert self._verdicts(resumed) == self._verdicts(fresh)
        assert [r.fingerprint() for r in resumed] == [
            r.fingerprint() for r in fresh
        ]

    def test_resume_preserves_mismatch_verdicts_too(self, tmp_path):
        # a mixed campaign: some points pass, some fail verification
        path = tmp_path / "campaign.jsonl"
        faults = "verify=0.5,seed=29"
        fresh = explore(self._runner(faults), _sweep())
        kinds = {r.failure_kind for r in fresh}
        assert "verify_mismatch" in kinds and "" in kinds  # genuinely mixed
        journal = SweepJournal(path)
        points = list(_sweep().points())
        journal.record(
            point_fingerprint("cpu", points[0]),
            self._runner(faults).run(points[0]),
        )
        resumed = explore(
            self._runner(faults),
            _sweep(),
            journal=SweepJournal(path),
            resume=True,
        )
        assert self._verdicts(resumed) == self._verdicts(fresh)
        assert [r.failure_kind for r in resumed] == [
            r.failure_kind for r in fresh
        ]

    def test_verify_toggle_does_not_change_fingerprints(self):
        plain = explore(BenchmarkRunner("cpu", ntimes=1), _sweep())
        verified = explore(self._runner(), _sweep())
        assert [r.fingerprint() for r in verified] == [
            r.fingerprint() for r in plain
        ]


class TestWorkerCrash:
    def test_crash_cancels_pool_and_names_point(self, monkeypatch):
        # a real engine, so the pool can rebuild it in each worker; the
        # forked workers inherit the patched run()
        def bomb(self, params):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(ExecutionEngine, "run", bomb)
        with pytest.raises(SweepError, match=r"grid point \d+ .*engine bug"):
            explore(ExecutionEngine("cpu", ntimes=1), _sweep(), jobs=2)
