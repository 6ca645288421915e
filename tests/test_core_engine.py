"""ExecutionEngine: staged pipeline, artifact caching, parallel sweeps.

Covers the engine's contract:

* cached and cold runs produce byte-identical measurements
  (:meth:`RunResult.fingerprint` — everything except the
  ``detail["engine"]`` instrumentation);
* a sweep performs the oclc front-end at most once per distinct
  ``(source, defines, device)`` triple, verified by the cache counters;
* ``explore(..., jobs=4)`` (a process pool) equals the serial path, in
  the same order, and the workers' cache counters reach the parent;
* the cache is invalidated when source-relevant defines change;
* failures (FPGA resource overflow) are cached and replayed.
"""

from __future__ import annotations

import gc

import pytest

from repro import oclc
from repro.core import (
    BenchmarkRunner,
    BuildCache,
    ExecutionEngine,
    KernelName,
    LoopManagement,
    ParameterSweep,
    StreamLocus,
    TuningParameters,
    explore,
    generate,
)
from repro.errors import BenchmarkError, SweepError
from repro.oclc import effective_defines, frontend_key, to_source
from repro.units import KIB, MIB


def _engine(target: str = "cpu", **kw) -> ExecutionEngine:
    kw.setdefault("ntimes", 2)
    return ExecutionEngine(target, **kw)


class TestStagedPipeline:
    def test_run_matches_legacy_runner_contract(self, small_params):
        result = _engine("cpu").run(small_params)
        assert result.ok and result.validated
        assert len(result.times) == 2
        assert result.moved_bytes == 2 * small_params.array_bytes
        assert "mpstream_copy" in str(result.detail["generated_source"])
        assert result.detail["build_log"]

    def test_detail_carries_stage_instrumentation(self, small_params):
        result = _engine("aocl").run(small_params)
        engine_info = result.detail["engine"]
        assert set(engine_info["stage_s"]) == {
            "generate",
            "compile",
            "plan",
            "execute",
            "verify",
        }
        assert engine_info["frontend_cache"] == "miss"
        assert engine_info["plan_cache"] == "miss"
        assert engine_info["stage_s"]["execute"] > 0
        # the verify stage only accrues time when enabled
        assert engine_info["stage_s"]["verify"] == 0.0

    def test_second_run_hits_both_caches(self, small_params):
        engine = _engine("gpu")
        cold = engine.run(small_params)
        warm = engine.run(small_params)
        assert cold.detail["engine"]["frontend_cache"] == "miss"
        assert warm.detail["engine"]["frontend_cache"] == "hit"
        assert warm.detail["engine"]["plan_cache"] == "hit"

    def test_cache_disabled_marks_stages_off(self, small_params):
        engine = _engine("cpu", cache=False)
        result = engine.run(small_params)
        assert result.ok
        assert result.detail["engine"]["frontend_cache"] == "off"
        assert result.detail["engine"]["plan_cache"] == "off"
        stats = engine.stats_snapshot()
        assert stats["frontend_hits"] == stats["frontend_misses"] == 0

    def test_ntimes_validation(self):
        with pytest.raises(BenchmarkError):
            ExecutionEngine("cpu", ntimes=0)

    def test_host_stream_through_engine(self):
        params = TuningParameters(array_bytes=1 * MIB, locus=StreamLocus.HOST)
        result = _engine("gpu").run(params)
        assert result.ok and result.validated
        assert result.detail["engine"]["frontend_cache"] == "off"

    def test_stats_accumulate_across_points(self, small_params):
        engine = _engine("cpu")
        for _ in range(3):
            engine.run(small_params)
        stats = engine.stats_snapshot()
        assert stats["points"] == 3
        assert stats["failures"] == 0
        assert stats["frontend_misses"] == 1
        assert stats["frontend_hits"] == 2


class TestByteIdenticalResults:
    def test_cached_vs_cold_fingerprints_match(self, small_params):
        cold = ExecutionEngine("aocl", ntimes=3, cache=False).run(small_params)
        engine = ExecutionEngine("aocl", ntimes=3)
        engine.run(small_params)  # populate the cache
        cached = engine.run(small_params)  # pure cache-hit run
        assert cached.detail["engine"]["frontend_cache"] == "hit"
        assert cold.fingerprint() == cached.fingerprint()

    def test_engine_matches_runner_results(self, small_params):
        via_runner = BenchmarkRunner("sdaccel", ntimes=2).run(small_params)
        via_engine = _engine("sdaccel").run(small_params)
        assert via_runner.fingerprint() == via_engine.fingerprint()

    def test_fingerprint_ignores_instrumentation_only(self, small_params):
        import dataclasses

        result = _engine("cpu").run(small_params)
        # changing instrumentation does not change identity
        detail = dict(result.detail)
        detail["engine"] = {"stage_s": {}, "frontend_cache": "???"}
        same = dataclasses.replace(result, detail=detail)
        assert same.fingerprint() == result.fingerprint()
        # changing a measurement does
        different = dataclasses.replace(result, times=tuple(2 * t for t in result.times))
        assert different.fingerprint() != result.fingerprint()

    def test_repeat_points_late_in_campaign_identical(self):
        """The long-lived queue must not leak virtual-clock offsets into
        latencies (float subtraction late in a campaign)."""
        engine = _engine("gpu", ntimes=3)
        p = TuningParameters(array_bytes=128 * KIB)
        first = engine.run(p)
        for size in (64 * KIB, 256 * KIB, 512 * KIB):
            engine.run(TuningParameters(array_bytes=size))
        again = engine.run(p)
        assert first.times == again.times
        assert first.fingerprint() == again.fingerprint()


class TestFrontendSharing:
    def test_size_sweep_compiles_once(self):
        """100 NDRange points differing only in array size share one
        front-end pass — the tentpole's acceptance criterion."""
        engine = _engine("cpu", ntimes=1)
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=4 * KIB),
            axes={"array_bytes": [4 * KIB * (i + 1) for i in range(100)]},
        )
        results = explore(engine, sweep)
        assert len(results) == 100
        stats = engine.stats_snapshot()
        # distinct (source, effective defines, device) triples in the sweep:
        triples = {
            frontend_key(g.source, {k: str(v) for k, v in g.defines.items()})
            for g in (generate(p) for p in sweep.points())
        }
        assert len(triples) == 1  # NDRange source never mentions N
        assert stats["frontend_misses"] == len(triples)
        assert stats["frontend_hits"] == 100 - len(triples)
        assert stats["plan_misses"] == len(triples)

    def test_flat_loop_sizes_are_distinct_triples(self):
        """FLAT-loop kernels bake N into the compile; sizes must miss."""
        engine = _engine("aocl", ntimes=1)
        sizes = [32 * KIB, 64 * KIB, 128 * KIB]
        for size in sizes:
            engine.run(
                TuningParameters(array_bytes=size, loop=LoopManagement.FLAT)
            )
        stats = engine.stats_snapshot()
        assert stats["frontend_misses"] == len(sizes)
        assert stats["frontend_hits"] == 0

    def test_cache_invalidated_when_defines_change(self):
        source = "__kernel void k(__global int *a) { a[0] = N; }\n"
        assert effective_defines(source, {"N": 1}) == (("N", "1"),)
        cache = BuildCache()
        checked_1, hit_1 = cache.frontend(source, {"N": 1})
        checked_2, hit_2 = cache.frontend(source, {"N": 2})
        checked_1b, hit_1b = cache.frontend(source, {"N": 1})
        assert not hit_1 and not hit_2 and hit_1b
        assert checked_1 is not checked_2
        assert checked_1 is checked_1b

    def test_unreferenced_defines_do_not_invalidate(self):
        source = "__kernel void k(__global int *a) { a[0] = 1; }\n"
        assert effective_defines(source, {"N": 64}) == ()
        cache = BuildCache()
        _, hit_1 = cache.frontend(source, {"N": 64})
        _, hit_2 = cache.frontend(source, {"N": 128})
        assert not hit_1 and hit_2

    def test_defines_reached_through_another_define_are_kept(self):
        # the lexer expands ``A`` to ``B`` and ``B`` to its value, so
        # ``B`` is part of the compile though the source never names it
        source = "__kernel void k(__global int *a) { a[0] = A; }\n"
        three, four = {"A": "B", "B": "3"}, {"A": "B", "B": "4"}
        assert effective_defines(source, four) == (("A", "B"), ("B", "4"))
        assert effective_defines(source, {"A": "B", "B": "C", "C": "5", "D": "6"}) == (
            ("A", "B"), ("B", "C"), ("C", "5"),
        )
        cache = BuildCache()
        _, hit_3 = cache.frontend(source, three)
        checked_4, hit_4 = cache.frontend(source, four)
        assert not hit_3 and not hit_4
        assert "a[0] = 4;" in to_source(checked_4.unit)

    def test_sources_with_directives_keep_all_defines(self):
        source = "#ifdef FAST\n#endif\n__kernel void k(__global int *a) { a[0] = 1; }\n"
        assert ("FAST", "1") in effective_defines(source, {"FAST": 1})


def _tiny_kernels(name: str, count: int = 1100) -> list[str]:
    return [
        f"__kernel void {name}(__global int *a) {{ a[0] = {i}; }}\n"
        for i in range(count)
    ]


class TestFrontendMemo:
    """The process-wide memo behind every :class:`BuildCache`."""

    def test_live_cache_shares_programs_with_a_second_cache(self, monkeypatch):
        """Two campaigns scan more kernels than any fixed bound, in the
        same order: while the first lives, the second compiles none."""
        compiled = []
        compile_source = oclc.compile_source

        def counting(source, defines=None):
            compiled.append(source)
            return compile_source(source, defines)

        monkeypatch.setattr(oclc, "compile_source", counting)
        sources = _tiny_kernels("memo_share")
        first, second = BuildCache(), BuildCache()
        for source in sources:
            first.frontend(source, None)
        assert len(compiled) == len(sources)
        compiled.clear()
        for source in sources:
            _, hit = second.frontend(source, None)
            assert not hit  # each campaign still counts its own misses
        assert compiled == []
        assert second.stats()["frontend_misses"] == len(sources)

    def test_memo_releases_programs_nobody_holds(self):
        """Each program is analyzed, so it holds its IR, which holds it:
        the cycle must not keep a program nobody else holds alive."""
        sources = _tiny_kernels("memo_release")
        keys = [frontend_key(source, None) for source in sources]
        first, second = BuildCache(), BuildCache()
        for source in sources:
            checked, _ = first.frontend(source, None)
            second.frontend(source, None)
            assert oclc.analyze(checked).program is checked
        assert all(key in oclc._frontend_cache for key in keys)
        del first, second, checked
        gc.collect()
        assert not any(key in oclc._frontend_cache for key in keys)


class TestFailureCaching:
    def test_build_failure_cached_and_replayed(self):
        # int16 x 3 arrays overflows the Virtex-7 in our resource model
        params = TuningParameters(
            array_bytes=64 * KIB,
            kernel=KernelName.ADD,
            vector_width=16,
            loop=LoopManagement.NESTED,
        )
        engine = _engine("sdaccel", ntimes=1)
        cold = engine.run(params)
        warm = engine.run(params)
        assert not cold.ok and not warm.ok
        assert "does not fit" in cold.error
        assert cold.error == warm.error
        assert cold.fingerprint() == warm.fingerprint()
        stats = engine.stats_snapshot()
        assert stats["plan_misses"] == 1
        assert stats["plan_hits"] == 1  # the replayed failure
        assert stats["failures"] == 2


class TestParallelExplore:
    def _sweep(self) -> ParameterSweep:
        return ParameterSweep(
            base=TuningParameters(array_bytes=64 * KIB),
            axes={
                "vector_width": [1, 2, 4, 8],
                "array_bytes": [32 * KIB, 64 * KIB, 128 * KIB],
            },
        )

    def test_parallel_equals_serial_in_order(self):
        serial = explore(BenchmarkRunner("gpu", ntimes=2), self._sweep())
        parallel = explore(
            BenchmarkRunner("gpu", ntimes=2), self._sweep(), jobs=4
        )
        assert len(serial) == len(parallel) == 12
        assert [r.params for r in serial] == [r.params for r in parallel]
        assert [r.fingerprint() for r in serial] == [
            r.fingerprint() for r in parallel
        ]

    def test_parallel_tolerates_failures(self):
        sweep = ParameterSweep(
            base=TuningParameters(
                array_bytes=64 * KIB,
                kernel=KernelName.ADD,
                loop=LoopManagement.NESTED,
            ),
            axes={"vector_width": [1, 2, 16]},  # 16 overflows sdaccel
        )
        results = explore(BenchmarkRunner("sdaccel", ntimes=1), sweep, jobs=3)
        assert len(results) == 3
        assert [r.ok for r in results] == [True, True, False]

    def test_parallel_progress_fires_per_point(self):
        seen: list[str] = []

        def progress(result) -> None:
            # explore serializes progress under a lock, so a plain list is safe
            seen.append(result.params.describe())

        explore(BenchmarkRunner("cpu", ntimes=1), self._sweep(), jobs=4, progress=progress)
        assert len(seen) == 12

    def test_workers_share_one_cache(self):
        # each pool worker warms a private build cache; what the workers
        # share with the parent is the accounting: every executed point
        # made one front-end and one plan lookup, and the hit/miss
        # counts ride home with the outcomes into stats_snapshot()
        runner = BenchmarkRunner("cpu", ntimes=1)
        for campaigns in (1, 2):
            explore(runner, self._sweep(), jobs=2, backend="process")
            stats = runner.stats_snapshot()
            executed = 12 * campaigns
            assert stats["points"] == executed
            assert stats["frontend_hits"] + stats["frontend_misses"] == executed
            assert stats["plan_hits"] + stats["plan_misses"] == executed
        # four kernel sources, three NDRange sizes each: workers reuse
        assert stats["frontend_hits"] > 0 and stats["plan_hits"] > 0

    def test_jobs_validation(self):
        with pytest.raises(SweepError):
            explore(BenchmarkRunner("cpu", ntimes=1), self._sweep(), jobs=0)
