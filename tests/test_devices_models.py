"""CPU/GPU model behaviours (mechanisms, not exact numbers)."""

from __future__ import annotations

import pytest

from repro.devices import Launch
from repro.devices.cpu import CpuModel
from repro.devices.gpu import GpuModel
from repro.devices.specs import GTX_TITAN_BLACK, XEON_E5_2609V2
from repro.oclc import compile_source
from repro.units import GB, KIB, MIB

NDRANGE_COPY = (
    "__kernel void k(__global const int *a, __global int *c)"
    "{ size_t i = get_global_id(0); c[i] = a[i]; }"
)
FLAT_COPY = (
    "__kernel void k(__global const int *a, __global int *c)"
    "{ for (int i = 0; i < N; i++) c[i] = a[i]; }"
)


def plan_and_launch(model, src, n_bytes, defines=None, n_items=None):
    checked = compile_source(src, defines)
    plan = model.build(checked)
    n_words = n_bytes // 4
    launch = Launch(
        global_size=(n_items if n_items is not None else n_words,),
        buffer_bytes={"a": n_bytes, "c": n_bytes},
    )
    return plan, launch


def bandwidth(model, src, n_bytes, defines=None, n_items=None):
    plan, launch = plan_and_launch(model, src, n_bytes, defines, n_items)
    timing = model.kernel_timing(plan, launch)
    return 2 * n_bytes / timing.total_s


def exec_bandwidth(model, src, n_bytes, defines=None, n_items=None):
    plan, launch = plan_and_launch(model, src, n_bytes, defines, n_items)
    timing = model.kernel_timing(plan, launch)
    return 2 * n_bytes / timing.execution_s


class TestCpuModel:
    @pytest.fixture(scope="class")
    def model(self):
        return CpuModel(XEON_E5_2609V2)

    def test_sustained_below_peak(self, model):
        bw = exec_bandwidth(model, NDRANGE_COPY, 64 * MIB)
        assert 0.5 * 34 * GB < bw < 34 * GB

    def test_small_arrays_overhead_dominated(self, model):
        bw = bandwidth(model, NDRANGE_COPY, 1 * KIB)
        assert bw < 0.01 * 34 * GB

    def test_bandwidth_rises_with_size(self, model):
        sizes = [4 * KIB, 64 * KIB, 1 * MIB, 16 * MIB]
        bws = [bandwidth(model, NDRANGE_COPY, s) for s in sizes]
        assert bws == sorted(bws)

    def test_single_work_item_single_core(self, model):
        n = 4 * MIB
        flat = exec_bandwidth(model, FLAT_COPY, n, defines={"N": str(n // 4)}, n_items=1)
        ndrange = exec_bandwidth(model, NDRANGE_COPY, n)
        assert flat < ndrange
        assert flat <= XEON_E5_2609V2.per_core_stream_bw * 1.01

    def test_strided_collapses_beyond_cache(self, model):
        n = 64 * MIB
        side = int((n // 4) ** 0.5)
        src = (
            "__kernel void k(__global const int *a, __global int *c)"
            "{ for (int j = 0; j < NJ; j++) for (int i = 0; i < NI; i++)"
            "  { int idx = i * NJ + j; c[idx] = a[idx]; } }"
        )
        defines = {"NI": str(side), "NJ": str(side)}
        strided = exec_bandwidth(model, src, n, defines=defines, n_items=1)
        # strided single-core... compare against contiguous single core
        contig = exec_bandwidth(model, FLAT_COPY, n, defines={"N": str(n // 4)}, n_items=1)
        assert strided < 0.3 * contig

    def test_strided_cache_bump_at_mid_sizes(self, model):
        src = (
            "__kernel void k(__global const int *a, __global int *c) {"
            " size_t g = get_global_id(0);"
            " size_t idx = (g % NI) * NJ + g / NI;"
            " c[idx] = a[idx]; }"
        )

        def strided_bw(n_bytes):
            side = int((n_bytes // 4) ** 0.5)
            return exec_bandwidth(
                model, src, n_bytes, defines={"NI": str(side), "NJ": str(side)}
            )

        mid = strided_bw(1 * MIB)  # reuse window fits the 10 MiB LLC
        big = strided_bw(256 * MIB)  # it does not
        assert mid > 2 * big

    def test_ndrange_scheduling_overhead_scales_with_groups(self, model):
        plan, launch = plan_and_launch(model, NDRANGE_COPY, 4 * MIB)
        t_auto = model.kernel_timing(plan, launch)
        tiny_groups = Launch(
            global_size=launch.global_size,
            local_size=(8,),
            buffer_bytes=launch.buffer_bytes,
        )
        t_tiny = model.kernel_timing(plan, tiny_groups)
        assert t_tiny.launch_overhead_s > t_auto.launch_overhead_s


class TestGpuModel:
    @pytest.fixture(scope="class")
    def model(self):
        return GpuModel(GTX_TITAN_BLACK)

    def test_sustained_fraction_of_peak(self, model):
        bw = exec_bandwidth(model, NDRANGE_COPY, 64 * MIB)
        assert 0.4 * 336 * GB < bw < 336 * GB

    def test_gpu_beats_cpu(self, model):
        cpu = CpuModel(XEON_E5_2609V2)
        assert exec_bandwidth(model, NDRANGE_COPY, 16 * MIB) > 4 * exec_bandwidth(
            cpu, NDRANGE_COPY, 16 * MIB
        )

    def test_single_thread_latency_bound(self, model):
        n = 1 * MIB
        flat = exec_bandwidth(model, FLAT_COPY, n, defines={"N": str(n // 4)}, n_items=1)
        ndrange = exec_bandwidth(model, NDRANGE_COPY, n)
        assert flat < ndrange / 100

    def test_wide_vectors_drop_occupancy(self, model):
        src16 = (
            "__kernel void k(__global const int16 *a, __global int16 *c)"
            "{ size_t i = get_global_id(0); c[i] = a[i]; }"
        )
        n = 16 * MIB
        w1 = exec_bandwidth(model, NDRANGE_COPY, n)
        w16 = exec_bandwidth(model, src16, n, n_items=n // 64)
        assert w16 < 0.85 * w1

    def test_strided_transaction_limited(self, model):
        src = (
            "__kernel void k(__global const int *a, __global int *c) {"
            " size_t g = get_global_id(0);"
            " size_t idx = (g % NI) * NJ + g / NI;"
            " c[idx] = a[idx]; }"
        )
        n = 512 * MIB  # beyond L2 reuse and TLB reach
        side = int((n // 4) ** 0.5)
        strided = exec_bandwidth(
            model, src, n, defines={"NI": str(side), "NJ": str(side)}
        )
        contig = exec_bandwidth(model, NDRANGE_COPY, n)
        assert strided < 0.1 * contig

    def test_l2_reuse_bump(self, model):
        src = (
            "__kernel void k(__global const int *a, __global int *c) {"
            " size_t g = get_global_id(0);"
            " size_t idx = (g % NI) * NJ + g / NI;"
            " c[idx] = a[idx]; }"
        )

        def strided_bw(n_bytes):
            side = int((n_bytes // 4) ** 0.5)
            return exec_bandwidth(
                model, src, n_bytes, defines={"NI": str(side), "NJ": str(side)}
            )

        assert strided_bw(4 * MIB) > 2 * strided_bw(512 * MIB)

    def test_build_log_mentions_occupancy(self, model):
        checked = compile_source(NDRANGE_COPY)
        plan = model.build(checked)
        assert "occupancy" in plan.build_log
