"""Metamorphic invariants: the laws hold, and violations are reported
as structured pairs of grid points rather than raised exceptions.

The negative-path tests deliberately break the model under each law
(monkeypatched launch latencies, fake engine results) and demand the
law *fires* — a law that cannot catch a broken model is not a check,
it is decoration."""

from dataclasses import dataclass

import numpy as np

from repro.core.params import AccessPattern, TuningParameters
from repro.verify import metamorphic
from repro.verify.metamorphic import (
    ALL_TARGETS,
    LawReport,
    Violation,
    check_all,
    check_bytes_linear,
    check_content_invariance,
    check_contiguous_vs_strided,
)


class TestLaws:
    def test_content_invariance_holds_on_every_target(self):
        report = check_content_invariance(ALL_TARGETS)
        assert report.ok, report.describe()
        assert report.checked == len(ALL_TARGETS)

    def test_contiguous_never_loses_to_strided(self):
        report = check_contiguous_vs_strided(ALL_TARGETS)
        assert report.ok, report.describe()

    def test_bytes_scale_linearly(self):
        report = check_bytes_linear(("cpu", "aocl"), factors=(2, 4, 8))
        assert report.ok, report.describe()
        assert report.checked == 6

    def test_check_all_runs_every_law(self):
        reports = check_all(quick=True)
        assert len(reports) == 3
        assert all(isinstance(r, LawReport) for r in reports)
        assert all(r.ok for r in reports), [r.describe() for r in reports]
        assert len({r.law for r in reports}) == 3


class TestViolationReporting:
    def test_violation_names_the_offending_pair(self):
        v = Violation(
            law="contiguous_vs_strided",
            left="cpu copy contiguous",
            right="cpu copy strided",
            left_value=0.5,
            right_value=0.75,
            detail="strided beat contiguous",
        )
        text = v.describe()
        assert "contiguous" in text and "cpu copy strided" in text
        assert "0.5" in text and "0.75" in text
        assert "strided beat contiguous" in text

    def test_law_report_describe_counts_violations(self):
        clean = LawReport(law="x", checked=3, violations=())
        assert clean.ok and "ok" in clean.describe()
        dirty = LawReport(
            law="x",
            checked=3,
            violations=(
                Violation(law="x", left="a", right="b", left_value=1, right_value=2),
            ),
        )
        assert not dirty.ok and "1 violation" in dirty.describe()


@dataclass
class _FakeResult:
    """The minimal result surface the engine-backed laws consume."""

    params: TuningParameters
    bandwidth_gbs: float = 1.0
    moved_bytes: int = 0
    ok: bool = True
    error: str | None = None


class TestNegativePaths:
    """Every law must fire on a deliberately broken model."""

    def test_content_invariance_fires_on_value_dependent_latency(
        self, monkeypatch
    ):
        # a model whose launch latency leaks the array *contents* — the
        # cardinal sin the law exists to catch
        def leaky(target, params, contents, *, ntimes):
            return (float(np.abs(contents["a"]).sum()),) * ntimes

        monkeypatch.setattr(metamorphic, "_device_latencies", leaky)
        report = check_content_invariance(("cpu",))
        assert not report.ok
        assert report.violations[0].law == "content_invariance"
        assert "contents=random" in report.violations[0].right

    def test_contiguous_vs_strided_fires_when_strided_wins(self, monkeypatch):
        class BrokenRunner:
            def __init__(self, target, ntimes):
                pass

            def run(self, params):
                fast = params.pattern is AccessPattern.STRIDED
                return _FakeResult(params, bandwidth_gbs=9.0 if fast else 1.0)

        monkeypatch.setattr(metamorphic, "BenchmarkRunner", BrokenRunner)
        report = check_contiguous_vs_strided(("cpu",))
        assert not report.ok
        first = report.violations[0]
        assert first.law == "contiguous_vs_strided"
        assert first.right_value > first.left_value
        assert "strided beat contiguous" in first.detail

    def test_contiguous_vs_strided_fires_on_failing_point(self, monkeypatch):
        class FailingRunner:
            def __init__(self, target, ntimes):
                pass

            def run(self, params):
                return _FakeResult(params, ok=False, error="device exploded")

        monkeypatch.setattr(metamorphic, "BenchmarkRunner", FailingRunner)
        report = check_contiguous_vs_strided(("cpu",))
        assert not report.ok
        assert "device exploded" in report.violations[0].detail

    def test_bytes_linear_fires_on_sublinear_byte_counting(self, monkeypatch):
        class SublinearRunner:
            def __init__(self, target, ntimes):
                pass

            def run(self, params):
                # bytes saturate instead of scaling with the array
                return _FakeResult(
                    params, moved_bytes=min(params.array_bytes, 20000)
                )

        monkeypatch.setattr(metamorphic, "BenchmarkRunner", SublinearRunner)
        report = check_bytes_linear(("cpu",), base_bytes=16384, factors=(2,))
        assert not report.ok
        assert report.violations[0].law == "bytes_linear"
        assert "expected exactly 2x" in report.violations[0].detail

    def test_broken_reports_surface_through_check_all(self, monkeypatch):
        # check_all must carry a firing law outward, not swallow it
        class BrokenRunner:
            def __init__(self, target, ntimes):
                pass

            def run(self, params):
                fast = params.pattern is AccessPattern.STRIDED
                return _FakeResult(
                    params,
                    bandwidth_gbs=9.0 if fast else 1.0,
                    moved_bytes=params.array_bytes,
                )

        monkeypatch.setattr(metamorphic, "BenchmarkRunner", BrokenRunner)
        reports = {r.law: r for r in metamorphic.check_all(quick=True)}
        assert not reports["contiguous_vs_strided"].ok
        assert reports["bytes_linear"].ok  # untouched laws still pass
