"""Shared device-model machinery: profiles, launches, builds."""

from __future__ import annotations

from repro.devices.base import (
    Launch,
    domain_size,
    profile_accesses,
)
from repro.oclc import LoopMode, analyze, compile_source


def ir_of(src, defines=None):
    return analyze(compile_source(src, defines))


def launch_for(ir, n_items=1, buffer_bytes=None):
    return Launch(
        global_size=(n_items,),
        buffer_bytes=buffer_bytes or {},
    )


class TestDomainSize:
    def test_ndrange(self):
        ir = ir_of(
            "__kernel void k(__global int *c) { size_t i = get_global_id(0); c[i] = 1; }"
        )
        assert domain_size(ir, launch_for(ir, 1024)) == 1024

    def test_flat(self):
        ir = ir_of(
            "__kernel void k(__global int *c) { for (int i = 0; i < 256; i++) c[i] = i; }"
        )
        assert domain_size(ir, launch_for(ir, 1)) == 256

    def test_nested(self):
        ir = ir_of(
            "__kernel void k(__global int *c)"
            "{ for (int i = 0; i < 8; i++) for (int j = 0; j < 32; j++) c[i*32+j] = 0; }"
        )
        assert domain_size(ir, launch_for(ir, 1)) == 256


class TestProfiles:
    def test_contiguous_profile(self):
        ir = ir_of(
            "__kernel void k(__global const int *a, __global int *c)"
            "{ size_t i = get_global_id(0); c[i] = a[i]; }"
        )
        profiles = profile_accesses(
            ir, launch_for(ir, 1024, {"a": 4096, "c": 4096})
        )
        assert len(profiles) == 2
        for p in profiles:
            assert p.pattern == "contiguous"
            assert p.stride_bytes == 4
            assert p.n_accesses == 1024
            assert p.useful_bytes == 4096
            assert p.footprint_bytes == 4096
            assert p.reuse_window_bytes is None
        assert {p.param: p.is_write for p in profiles} == {"a": False, "c": True}

    def test_strided_profile(self):
        ir = ir_of(
            "__kernel void k(__global int *c)"
            "{ for (int j = 0; j < 32; j++) for (int i = 0; i < 32; i++)"
            "  c[i * 32 + j] = i; }"
        )
        [p] = profile_accesses(ir, launch_for(ir, 1, {"c": 4096}))
        assert p.pattern == "strided"
        assert p.stride_bytes == 32 * 4
        # column of 32 rows -> 32 lines needed to catch the reuse
        assert p.reuse_window_bytes == 32 * 64

    def test_modulo_strided_profile(self):
        ir = ir_of(
            "__kernel void k(__global int *c) {"
            " size_t g = get_global_id(0);"
            " size_t idx = (g % 64) * 64 + g / 64;"
            " c[idx] = 1; }"
        )
        [p] = profile_accesses(ir, launch_for(ir, 4096, {"c": 16384}))
        assert p.pattern == "strided"
        assert p.stride_bytes == 64 * 4

    def test_vector_element_width(self):
        ir = ir_of(
            "__kernel void k(__global const int8 *a, __global int8 *c)"
            "{ size_t i = get_global_id(0); c[i] = a[i]; }"
        )
        profiles = profile_accesses(ir, launch_for(ir, 128, {"a": 4096, "c": 4096}))
        assert all(p.element_bytes == 32 for p in profiles)
        assert all(p.pattern == "contiguous" for p in profiles)

    def test_repeated_access_zero_stride(self):
        ir = ir_of(
            "__kernel void k(__global const int *a, __global int *c)"
            "{ for (int i = 0; i < 16; i++) c[i] = a[0]; }"
        )
        by_param = {
            p.param: p
            for p in profile_accesses(ir, launch_for(ir, 1, {"a": 64, "c": 64}))
        }
        assert by_param["a"].stride_bytes == 0
        assert by_param["c"].stride_bytes == 4


class TestBuildMachinery:
    def test_plan_for_sibling_kernel(self, aocl_device):
        src = (
            "__kernel void k1(__global int *c) { for (int i = 0; i < 8; i++) c[i] = 1; }\n"
            "__kernel void k2(__global int *c) { size_t i = get_global_id(0); c[i] = 2; }"
        )
        checked = compile_source(src)
        plan1 = aocl_device.model.build(checked)
        assert plan1.ir.name == "k1"
        plan2 = aocl_device.model.plan_for_kernel(plan1, "k2")
        assert plan2.ir.name == "k2"
        assert plan2.ir.loop_mode is LoopMode.NDRANGE

    def test_every_model_reports_transfer_time(self, any_device):
        t_small = any_device.model.transfer_time(4096, "h2d")
        t_big = any_device.model.transfer_time(64 * 1024 * 1024, "h2d")
        assert 0 < t_small < t_big

    def test_copy_time_positive(self, any_device):
        assert any_device.model.copy_time(1 << 20) > 0


class TestAccessCounts:
    def test_epilogue_store_counted_once(self):
        from repro.devices.base import access_count

        ir = ir_of(
            "__kernel void k(__global const double *a, __global double *c) {"
            " double acc = 0.0;"
            " for (int i = 0; i < 1024; i++) { acc += a[i]; }"
            " c[0] = acc; }"
        )
        launch = launch_for(ir, 1, {"a": 8192, "c": 8})
        by_param = {a.param: a for a in ir.accesses}
        assert by_param["a"].depth == 1
        assert by_param["c"].depth == 0
        assert access_count(ir, by_param["a"], launch) == 1024
        assert access_count(ir, by_param["c"], launch) == 1

    def test_dot_timing_is_stream_class(self, aocl_device):
        """A reduction kernel's memory time must be driven by its two
        read streams, not by a phantom store-per-iteration."""
        src = (
            "__kernel void k(__global const double *a, __global const double *b,"
            " __global double *c) {"
            " double acc = 0.0;"
            " for (int i = 0; i < N; i++) { acc += a[i] * b[i]; }"
            " c[0] = acc; }"
        )
        n = 1 << 18
        checked_dot = compile_source(src, {"N": str(n)})
        plan = aocl_device.model.build(checked_dot)
        launch = Launch(
            global_size=(1,), buffer_bytes={"a": 8 * n, "b": 8 * n, "c": 8}
        )
        t_dot = aocl_device.model.kernel_timing(plan, launch).execution_s

        copy_src = (
            "__kernel void k(__global const double *a, __global double *c)"
            "{ for (int i = 0; i < N; i++) c[i] = a[i]; }"
        )
        checked_copy = compile_source(copy_src, {"N": str(n)})
        plan_c = aocl_device.model.build(checked_copy)
        t_copy = aocl_device.model.kernel_timing(
            plan_c, Launch(global_size=(1,), buffer_bytes={"a": 8 * n, "c": 8 * n})
        ).execution_s
        # same iteration count, same bytes read+written per cycle class:
        # times within 2x of each other
        assert t_dot < 2 * t_copy
