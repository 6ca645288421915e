"""Model-guided search: the search-vs-sweep differential harness.

The headline guarantee of :mod:`repro.core.search`: on the paper's
per-device tuning grids, ranking the pool on the device model and
measuring its top ``budget`` finds the *exhaustive sweep's* optimum
while measuring under 10% of the grid. That holds only because the
model ranks points exactly as measurement does, so the harness checks
that premise point by point, and checks that measurement (not the
model) picks the winner when the premise is broken on purpose. The
promotion helper carries hypothesis property tests for the ordering
the golden trajectories then pin end-to-end.
"""

from __future__ import annotations

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oclc
from repro.core import (
    BenchmarkRunner,
    CampaignScheduler,
    KernelName,
    LoopManagement,
    ParameterSweep,
    StreamLocus,
    TuningParameters,
    explore,
    multifidelity_search,
)
from repro.core.search import LowFidelityScorer, promote
from repro.devices.base import DeviceModel
from repro.errors import SweepError
from repro.oclc import analysis
from repro.oclc.specialize import SpecializedKernel
from repro.units import KIB

#: the paper's tuning axes: kernel x loop management x vector width x
#: unroll — 90 combinations, 70 valid points per device
PAPER_AXES = {
    "kernel": [KernelName.COPY, KernelName.TRIAD],
    "loop": list(LoopManagement),
    "vector_width": [1, 2, 4, 8, 16],
    "unroll": [1, 2, 4],
}

SMALL_AXES = {
    "loop": [LoopManagement.FLAT, LoopManagement.NESTED, LoopManagement.NDRANGE],
    "vector_width": [1, 2, 4, 8],
    "unroll": [1, 2],
}

SEED = TuningParameters(array_bytes=64 * KIB)


# ---------------------------------------------------------------------------
# the differential harness: search vs exhaustive explore()
# ---------------------------------------------------------------------------


class TestSearchVsSweepDifferential:
    @pytest.mark.parametrize("target", ["cpu", "gpu", "aocl", "sdaccel"])
    def test_finds_exhaustive_optimum_under_tenth_budget(self, target):
        """The core acceptance criterion, per device model.

        One shared runner: the sweep rides the caches the search
        warmed, so the comparison is about *evaluations*, not wall
        time. Budget 6 over a 70-point pool is 8.6% of the grid.
        """
        runner = BenchmarkRunner(target, ntimes=1)
        out = multifidelity_search(runner, PAPER_AXES, seed=SEED, budget=6)
        grid = explore(runner, ParameterSweep(base=SEED, axes=PAPER_AXES))
        grid_best = grid.best()

        # the search's premise, point by point: the model tier fails
        # exactly the builds the engine fails, and otherwise predicts
        # the measured bandwidth
        scorer = LowFidelityScorer(runner)
        for result in grid:
            score = scorer.score(result.params)
            label = f"{target}: {result.params.describe()}"
            if result.failure_kind == "build":
                assert score is None, label
            else:
                assert result.ok and score is not None, label
                assert score == pytest.approx(
                    result.bandwidth_gbs, rel=1e-12
                ), label

        assert grid_best is not None and out.best.ok
        assert out.spent < 0.1 * out.pool_size, (
            f"{target}: spent {out.spent} of pool {out.pool_size}"
        )
        # same optimum — identical point, or (tie tolerance) identical
        # bandwidth to within 1e-6 relative
        if out.best.fingerprint() != grid_best.fingerprint():
            assert out.best.bandwidth_gbs == pytest.approx(
                grid_best.bandwidth_gbs, rel=1e-6
            ), (
                f"{target}: search found {out.best.params.describe()} "
                f"({out.best.bandwidth_gbs:.6f}), sweep found "
                f"{grid_best.params.describe()} "
                f"({grid_best.bandwidth_gbs:.6f})"
            )

    def test_budget_respected_and_accounted(self):
        runner = BenchmarkRunner("cpu", ntimes=1)
        out = multifidelity_search(runner, SMALL_AXES, seed=SEED, budget=4)
        assert out.spent == 4
        assert out.evaluations_used == out.spent
        assert out.rungs[-1].spent == out.spent

        # failed builds never win: sdaccel ADD overflows at vec 16, so
        # the model tier drops it and the search measures only the rest
        out = multifidelity_search(
            BenchmarkRunner("sdaccel", ntimes=1),
            {"vector_width": [1, 8, 16]},
            seed=TuningParameters(
                array_bytes=256 * KIB,
                kernel=KernelName.ADD,
                loop=LoopManagement.NESTED,
            ),
            budget=10,
        )
        assert (out.pool_size, out.model_scored, out.spent) == (3, 2, 2)
        assert out.best.ok and out.best.params.vector_width == 8

        # invalid combinations never enter the pool: unroll > 1 is
        # illegal for the NDRange seed
        out = multifidelity_search(
            runner, {"unroll": [1, 4], "vector_width": [1, 4]}, seed=SEED,
            budget=10,
        )
        assert out.pool_size == 2 and out.spent == 2
        assert out.best.ok and out.best.params.unroll == 1

    def test_rung_structure(self):
        """Rung 0 is the free model tier over the whole pool; rung 1
        measures a prefix of the model ranking and ranks it again by
        measurement, winner first."""
        runner = BenchmarkRunner("aocl", ntimes=1)
        out = multifidelity_search(runner, SMALL_AXES, seed=SEED, budget=6)
        model, measured = out.rungs
        assert (model.tier, measured.tier) == ("model", "measured")
        assert len(model.candidates) == out.pool_size
        assert (model.spent, measured.spent) == (0, 6)
        for rung in out.rungs:
            # each rung orders its survivors best-first
            scores = dict(zip(rung.candidates, rung.scores))
            ranked = [scores[key] for key in rung.survivors]
            assert ranked == sorted(ranked, reverse=True)
        assert measured.survivors[0] == out.best.params.describe()

    def test_measures_the_model_prefix_in_one_batch(self, monkeypatch):
        """The measured set is exactly the model ranking's first
        ``budget`` points, handed to the scheduler as one batch."""
        batches: list[int] = []
        real_run = CampaignScheduler.run

        def counting_run(self, points, **kw):
            batches.append(len(points))
            return real_run(self, points, **kw)

        monkeypatch.setattr(CampaignScheduler, "run", counting_run)
        runner = BenchmarkRunner("aocl", ntimes=1)
        out = multifidelity_search(runner, SMALL_AXES, seed=SEED, budget=6)
        assert batches == [6]
        measured = {r.params.describe() for r in out.evaluations}
        assert measured == set(out.rungs[0].survivors[:6])
        assert out.spent == 6

    def test_measurement_picks_the_winner(self, monkeypatch):
        """With the model ranking inverted, the search still returns the
        best *measured* point: the grid optimum when the budget covers
        the pool, else the best of the (inverted) prefix it measured."""
        runner = BenchmarkRunner("aocl", ntimes=1)
        sweep = ParameterSweep(base=SEED, axes=SMALL_AXES)
        grid_best = explore(runner, sweep).best()
        real_score = LowFidelityScorer.score

        def inverted(self, params):
            score = real_score(self, params)
            return None if score is None else 1.0 / score

        monkeypatch.setattr(LowFidelityScorer, "score", inverted)
        full = multifidelity_search(
            runner, SMALL_AXES, seed=SEED, budget=len(sweep)
        )
        assert full.best.fingerprint() == grid_best.fingerprint()

        prefix = multifidelity_search(runner, SMALL_AXES, seed=SEED, budget=4)
        ok = [r for r in prefix.evaluations if r.ok]
        best_measured = max(ok, key=lambda r: r.bandwidth_gbs)
        assert prefix.best.fingerprint() == best_measured.fingerprint()
        # the inverted model steered measurement away from the optimum
        assert prefix.best.bandwidth_gbs < grid_best.bandwidth_gbs

    def test_no_admission_below_an_unadmitted_candidate(self):
        """The search measures the model ranking in prefix order: no
        measured candidate was ranked strictly below a never-measured
        one by the low-fidelity tier."""
        runner = BenchmarkRunner("gpu", ntimes=1)
        out = multifidelity_search(runner, SMALL_AXES, seed=SEED, budget=6)
        model = out.rungs[0]
        scores = dict(zip(model.candidates, model.scores))
        measured = {
            key for rung in out.rungs[1:] for key in rung.candidates
        }
        unmeasured = set(model.survivors) - measured
        if measured and unmeasured:
            worst_measured = min(scores[k] for k in measured)
            best_unmeasured = max(scores[k] for k in unmeasured)
            assert worst_measured >= best_unmeasured

    def test_trajectory_fingerprint_is_stable(self):
        runner = BenchmarkRunner("cpu", ntimes=1)
        a = multifidelity_search(runner, SMALL_AXES, seed=SEED, budget=6)
        b = multifidelity_search(runner, SMALL_AXES, seed=SEED, budget=6)
        assert a.trajectory_fingerprint() == b.trajectory_fingerprint()
        assert a.rung_fingerprints() == b.rung_fingerprints()


# ---------------------------------------------------------------------------
# validation: uniform SweepError at entry
# ---------------------------------------------------------------------------


class TestSearchValidation:
    def runner(self):
        return BenchmarkRunner("cpu", ntimes=1)

    def test_budget_below_one(self):
        with pytest.raises(SweepError, match="budget must be >= 1"):
            multifidelity_search(self.runner(), SMALL_AXES, budget=0)

    def test_eta_below_two(self):
        """The halving and refinement knobs, and the coordinate-descent
        tuner, are gone: one search is left."""
        for knob in ({"eta": 2}, {"refine": False}):
            with pytest.raises(TypeError):
                multifidelity_search(self.runner(), SMALL_AXES, **knob)
        with pytest.raises(ImportError):
            from repro.core import autotune  # noqa: F401

    def test_no_axes(self):
        with pytest.raises(SweepError, match="at least one axis"):
            multifidelity_search(self.runner(), {})

    def test_empty_axis_values(self):
        with pytest.raises(SweepError, match="has no values"):
            multifidelity_search(self.runner(), {"vector_width": []})

    def test_unknown_axis(self):
        with pytest.raises(SweepError, match="unknown sweep axes"):
            multifidelity_search(self.runner(), {"warp_size": [32]})

    def test_host_locus_not_scorable(self):
        axes = {"locus": [StreamLocus.DEVICE, StreamLocus.HOST]}
        with pytest.raises(SweepError, match="cannot be model-scored"):
            multifidelity_search(self.runner(), axes, seed=SEED, budget=4)


# ---------------------------------------------------------------------------
# the low-fidelity tier
# ---------------------------------------------------------------------------


class TestLowFidelityScorer:
    def test_scores_match_model_ordering_currency(self):
        """Scores are GB/s: positive for buildable points, None for
        build failures, and the same when a point is scored again."""
        runner = BenchmarkRunner("aocl", ntimes=1)
        scorer = LowFidelityScorer(runner)
        ok = SEED
        score = scorer.score(ok)
        assert score is not None and score > 0
        assert scorer.score(ok) == score  # a plan-cache hit scores the same

    def test_build_failure_scores_none(self):
        """An FPGA resource overflow in the model tier is a None score,
        not an exception — mirrors failed points in a sweep."""
        runner = BenchmarkRunner("aocl", ntimes=1)
        scorer = LowFidelityScorer(runner)
        monster = TuningParameters(
            array_bytes=64 * KIB,
            loop=LoopManagement.FLAT,
            vector_width=16,
            unroll=16,
            num_compute_units=8,
        )
        assert scorer.score(monster) is None

    def test_cached_failure_identical_to_engine_failure(self):
        """The scorer shares the engine's plan cache, so the failure it
        caches must classify exactly like an engine-run failure."""
        monster = TuningParameters(
            array_bytes=64 * KIB,
            loop=LoopManagement.FLAT,
            vector_width=16,
            unroll=16,
            num_compute_units=8,
        )
        # scorer first: poisons the shared plan cache if wrapping differs
        runner = BenchmarkRunner("aocl", ntimes=1)
        LowFidelityScorer(runner).score(monster)
        via_scorer_first = runner.run(monster)
        # fresh engine, engine first
        control = BenchmarkRunner("aocl", ntimes=1).run(monster)
        assert not via_scorer_first.ok and not control.ok
        assert via_scorer_first.failure_kind == control.failure_kind

    def test_uncached_scores_equal_cached_scores(self):
        points = [SEED, SEED.with_(loop=LoopManagement.FLAT, vector_width=4)]
        cached = LowFidelityScorer(BenchmarkRunner("gpu", ntimes=1))
        for point in points:
            cached.score(point)  # warm its engine's build cache
        uncached = LowFidelityScorer(BenchmarkRunner("gpu", ntimes=1))
        assert [uncached.score(p) for p in points] == [cached.score(p) for p in points]

    def test_search_analyzes_each_program_once(self, monkeypatch):
        """Two targets score one pool and measure their top points: each
        distinct program is analyzed once, and the array lane runs each
        measured point with the IR its plan holds."""
        monkeypatch.setattr(oclc, "_frontend_cache", weakref.WeakValueDictionary())
        compiled, analyzed, specialized, plans = [], [], [], []
        compile_source = oclc.compile_source
        run = analysis._Analyzer.run
        init = SpecializedKernel.__init__
        build = DeviceModel.build

        def counting_compile(source, defines=None):
            compiled.append(compile_source(source, defines))
            return compiled[-1]

        def counting_run(self):
            analyzed.append(self.program)
            return run(self)

        def recording_init(self, ir):
            specialized.append(ir)
            init(self, ir)

        def recording_build(self, checked):
            plans.append(build(self, checked))
            return plans[-1]

        monkeypatch.setattr(oclc, "compile_source", counting_compile)
        monkeypatch.setattr(analysis._Analyzer, "run", counting_run)
        monkeypatch.setattr(SpecializedKernel, "__init__", recording_init)
        monkeypatch.setattr(DeviceModel, "build", recording_build)
        axes = {
            "kernel": [KernelName.COPY, KernelName.TRIAD],
            "loop": [LoopManagement.FLAT, LoopManagement.NDRANGE],
            "vector_width": [1, 4],
        }
        runners = [BenchmarkRunner(t, ntimes=1) for t in ("gpu", "aocl")]
        for runner in runners:
            multifidelity_search(
                runner, axes, seed=TuningParameters(array_bytes=16 * KIB), budget=2
            )
        assert len(compiled) == 8
        assert sorted(map(id, analyzed)) == sorted(map(id, compiled))
        assert len(specialized) == 4
        for ir in specialized:
            assert any(plan.ir is ir for plan in plans)


# ---------------------------------------------------------------------------
# hypothesis properties over the pure promotion helper
# ---------------------------------------------------------------------------


scores_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=63),
    st.one_of(st.none(), st.floats(min_value=0, max_value=1e3)),
    min_size=1,
    max_size=24,
)


class TestHalvingProperties:
    @given(scores=scores_strategy, keep=st.integers(min_value=1, max_value=24))
    @settings(max_examples=200, deadline=None)
    def test_promote_never_picks_below_an_eliminated(self, scores, keep):
        """The satellite property: promotion never keeps a candidate
        scored strictly below an eliminated one at the same rung."""
        candidates = sorted(scores)
        kept = promote(candidates, scores, keep)
        eliminated = [c for c in candidates if c not in kept]

        def rank(i):
            s = scores.get(i)
            return s if s is not None else 0.0

        for k in kept:
            for e in eliminated:
                assert not rank(k) < rank(e)

    @given(scores=scores_strategy, keep=st.integers(min_value=1, max_value=24))
    @settings(max_examples=200, deadline=None)
    def test_promote_tie_break_keeps_earlier_pool_index(self, scores, keep):
        candidates = sorted(scores)
        kept = promote(candidates, scores, keep)

        def rank(i):
            s = scores.get(i)
            return s if s is not None else 0.0

        for e in (c for c in candidates if c not in kept):
            for k in kept:
                if rank(k) == rank(e):
                    assert k < e  # equal score: earlier index survives

    @given(scores=scores_strategy, keep=st.integers(min_value=0, max_value=24))
    @settings(max_examples=100, deadline=None)
    def test_promote_is_deterministic_and_bounded(self, scores, keep):
        candidates = sorted(scores)
        a = promote(candidates, scores, keep)
        b = promote(list(reversed(candidates)), scores, keep)
        assert a == b  # input order never matters
        assert len(a) == min(keep, len(candidates))


# ---------------------------------------------------------------------------
# golden trajectory corpus
# ---------------------------------------------------------------------------


class TestGoldenSearchTrajectories:
    def test_pinned_trajectories_have_no_drift(self):
        """Every pinned scenario replays to the identical rung-by-rung
        trajectory; drift is reported by name, not just failed."""
        from repro import verify as V

        pinned = V.load_corpus(V.DEFAULT_SEARCH_GOLDEN_PATH)
        current = V.compute_search_corpus()
        diff = V.diff_corpus(pinned, current, fields=V.SEARCH_COMPARED_FIELDS)
        assert diff.clean, V.format_drift(diff, pinned, current)

    def test_corpus_covers_every_target(self):
        from repro import verify as V

        pinned = V.load_corpus(V.DEFAULT_SEARCH_GOLDEN_PATH)
        targets = {e["target"] for e in pinned["entries"].values()}
        assert targets == {"cpu", "gpu", "aocl", "sdaccel"}
        for entry in pinned["entries"].values():
            assert entry["spent"] == entry["budget"]
            assert len(entry["rung_fingerprints"]) == 2
