"""Figure reproduction functions: qualitative paper shapes at small scale."""

from __future__ import annotations

import pytest

from repro import figures
from repro.obs import metrics as obs_metrics
from repro.units import KIB, MIB

# small sizes keep the functional simulation fast; shapes already hold
SIZES = [64 * KIB, 512 * KIB]
AB = 512 * KIB


@pytest.fixture(scope="module")
def fig1a():
    return figures.fig1a_array_size(sizes=SIZES, ntimes=1)


@pytest.fixture(scope="module")
def fig3():
    return figures.fig3_loop_management(array_bytes=AB, ntimes=1)


class TestFig1a:
    def test_all_targets_present(self, fig1a):
        assert set(fig1a) == {"aocl", "sdaccel", "cpu", "gpu"}

    def test_bandwidth_rises_with_size(self, fig1a):
        for target, points in fig1a.items():
            ys = [y for _, y in points]
            assert ys == sorted(ys), target

    def test_target_ordering(self, fig1a):
        last = {t: pts[-1][1] for t, pts in fig1a.items()}
        assert last["gpu"] > last["cpu"] > last["aocl"] > last["sdaccel"]


class TestFig1b:
    def test_fpga_targets_gain_most_from_vectorization(self):
        series = figures.fig1b_vector_width(
            widths=(1, 4, 16), array_bytes=AB, ntimes=1
        )
        gain = {
            t: pts[-1][1] / pts[0][1] for t, pts in series.items() if pts
        }
        assert gain["aocl"] > 3
        # smaller test arrays leave some fill overhead on the slow V7 clock
        assert gain["sdaccel"] > 2.5
        assert gain["cpu"] < 1.5
        assert gain["gpu"] < 1.5


class TestFig2:
    def test_contiguous_beats_strided(self):
        series = figures.fig2_contiguity(sizes=[512 * KIB], ntimes=1)
        for target in ("aocl", "sdaccel", "cpu", "gpu"):
            contig = series[f"{target}-contig"][0][1]
            strided = series[f"{target}-strided"][0][1]
            assert contig > strided, target

    def test_sdaccel_strided_collapse(self):
        series = figures.fig2_contiguity(sizes=[512 * KIB], ntimes=1)
        assert series["sdaccel-strided"][0][1] < 0.05


class TestFig3:
    def test_cpu_gpu_prefer_ndrange(self, fig3):
        nd = dict(fig3["ndrange-kernel"])
        flat = dict(fig3["kernel-loop-flat"])
        # targets indexed in paper order: aocl=0, sdaccel=1, cpu=2, gpu=3
        assert nd[2.0] > flat[2.0]
        assert nd[3.0] > flat[3.0]

    def test_fpgas_prefer_single_work_item(self, fig3):
        nd = dict(fig3["ndrange-kernel"])
        flat = dict(fig3["kernel-loop-flat"])
        nested = dict(fig3["kernel-loop-nested"])
        assert flat[0.0] > nd[0.0]  # aocl
        assert max(flat[1.0], nested[1.0]) > nd[1.0]  # sdaccel

    def test_sdaccel_nested_anomaly(self, fig3):
        flat = dict(fig3["kernel-loop-flat"])
        nested = dict(fig3["kernel-loop-nested"])
        assert nested[1.0] > 2 * flat[1.0]


class TestFig4:
    def test_all_kernels_memory_bound(self):
        series = figures.fig4a_all_kernels(array_bytes=AB, ntimes=1)
        assert set(series) == {"copy", "scale", "add", "triad"}
        # per target, kernels land within a factor ~3 of each other
        for i in range(4):
            values = [dict(series[k])[float(i)] for k in series if float(i) in dict(series[k])]
            assert max(values) < 4 * min(values)

    def test_aocl_native_vectorization_most_reliable(self):
        series = figures.fig4b_aocl_optimizations(
            scales=(1, 4, 16), array_bytes=AB, ntimes=1
        )
        vec = dict(series["vector-width"])
        simd = dict(series["simd-work-items"])
        cu = dict(series["compute-units"])
        assert vec[16.0] > simd.get(16.0, 0.0)
        assert vec[16.0] > cu.get(16.0, 0.0)
        # vectorization improves monotonically in this range
        assert vec[16.0] > vec[4.0] > vec[1.0]


class TestTableAndExtras:
    def test_targets_table_matches_paper_setup(self):
        rows = figures.targets_table()
        by_target = {r["target"]: r for r in rows}
        assert by_target["cpu"]["peak_bw_gbs"] == 34.0
        assert by_target["gpu"]["peak_bw_gbs"] == 336.0
        assert by_target["aocl"]["peak_bw_gbs"] == 25.6
        assert by_target["sdaccel"]["peak_bw_gbs"] == 10.0
        assert [r["target"] for r in rows] == ["aocl", "sdaccel", "cpu", "gpu"]

    def test_pcie_streams_monotone(self):
        series = figures.pcie_streams(sizes=[64 * KIB, 4 * MIB], ntimes=1)
        for target, points in series.items():
            assert points[-1][1] > points[0][1], target

    def test_ablation_unroll_runs(self):
        series = figures.ablation_unroll(
            factors=(1, 4), targets=("aocl",), array_bytes=AB, ntimes=1
        )
        assert len(series["aocl"]) == 2

    def test_ablation_preshaping_breakeven(self):
        out = figures.ablation_preshaping(
            targets=("gpu",), array_bytes=AB, ntimes=1
        )
        entry = out["gpu"]
        assert entry["speedup"] > 1.0
        assert entry["breakeven_passes"] > 0


class TestSharedBuildArtifacts:
    def test_repeated_figure_rebuilds_nothing(self):
        """Figure calls share one engine per target, so a repeated call
        finds every program and plan the first one built."""
        kwargs = dict(widths=(1, 2), targets=("cpu",), array_bytes=64 * KIB, ntimes=1)
        first = figures.fig1b_vector_width(**kwargs)
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(registry):
            second = figures.fig1b_vector_width(**kwargs)
        counters = registry.snapshot()["counters"]
        assert second == first
        assert counters.get("build_cache.frontend_misses", 0) == 0
        assert counters.get("build_cache.plan_misses", 0) == 0
        assert counters["build_cache.plan_hits"] == len(kwargs["widths"])
