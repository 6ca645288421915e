"""Kernel analysis: loop modes, affine strides, index streams, IR metrics, memos."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.base import Launch, profile_accesses
from repro.errors import UnsupportedKernelError
from repro.oclc import (
    BufferArg,
    LoopMode,
    analyze,
    compile_source,
    index_stream,
    run_kernel,
)


def ir_of(src, defines=None):
    return analyze(compile_source(src, defines))


def stride_bytes(ir, global_size=1):
    """Each access site's stride, as the device models see it."""
    launch = Launch(global_size=(global_size,))
    return [p.stride_bytes for p in profile_accesses(ir, launch)]


class TestLoopModes:
    def test_ndrange(self):
        ir = ir_of(
            "__kernel void k(__global const int *a, __global int *c)"
            "{ size_t i = get_global_id(0); c[i] = a[i]; }"
        )
        assert ir.loop_mode is LoopMode.NDRANGE
        assert ir.loops == ()
        assert ir.gid_vars == ("gid0",)

    def test_flat(self):
        ir = ir_of(
            "__kernel void k(__global const int *a, __global int *c)"
            "{ for (int i = 0; i < 128; i++) c[i] = a[i]; }"
        )
        assert ir.loop_mode is LoopMode.FLAT
        assert ir.loops[0].trip_count == 128
        assert ir.iterations_per_work_item() == 128

    def test_nested(self):
        ir = ir_of(
            "__kernel void k(__global const int *a, __global int *c)"
            "{ for (int i = 0; i < 4; i++) for (int j = 0; j < 8; j++)"
            "  c[i * 8 + j] = a[i * 8 + j]; }"
        )
        assert ir.loop_mode is LoopMode.NESTED
        assert [loop.trip_count for loop in ir.loops] == [4, 8]
        assert ir.iterations_per_work_item() == 32

    def test_loop_with_step(self):
        ir = ir_of(
            "__kernel void k(__global int *c)"
            "{ for (int i = 0; i < 100; i += 3) c[i] = i; }"
        )
        assert ir.loops[0].trip_count == 34

    def test_le_bound(self):
        ir = ir_of(
            "__kernel void k(__global int *c)"
            "{ for (int i = 0; i <= 9; i++) c[i] = i; }"
        )
        assert ir.loops[0].trip_count == 10

    def test_nonconstant_bound_rejected(self):
        with pytest.raises(UnsupportedKernelError):
            ir_of(
                "__kernel void k(__global int *c, const int n)"
                "{ for (int i = 0; i < n; i++) c[i] = i; }"
            )


class TestAccesses:
    def test_reads_writes_split(self):
        ir = ir_of(
            "__kernel void k(__global const int *a, __global const int *b, __global int *c)"
            "{ size_t i = get_global_id(0); c[i] = a[i] + b[i]; }"
        )
        assert {a.param for a in ir.reads} == {"a", "b"}
        assert {a.param for a in ir.writes} == {"c"}
        assert ir.bytes_per_iteration() == 12
        assert ir.elements_per_iteration() == 3

    def test_affine_coefficients(self):
        ir = ir_of(
            "__kernel void k(__global int *c)"
            "{ for (int i = 0; i < 4; i++) for (int j = 0; j < 8; j++)"
            "  c[i * 8 + j + 2] = j; }"
        )
        acc = ir.writes[0]
        assert acc.affine.is_affine
        assert acc.affine.stride_of("i") == 8
        assert acc.affine.stride_of("j") == 1
        assert acc.affine.const == 2

    def test_affine_through_local_alias(self):
        ir = ir_of(
            "__kernel void k(__global int *c)"
            "{ for (int i = 0; i < 16; i++) { int idx = i * 4; c[idx] = i; } }"
        )
        assert ir.writes[0].affine.is_affine
        assert ir.writes[0].affine.stride_of("i") == 4

    def test_modulo_index_not_affine(self):
        ir = ir_of(
            "__kernel void k(__global int *c) {"
            " size_t g = get_global_id(0);"
            " size_t idx = (g % 8) * 8 + g / 8;"
            " c[idx] = 1; }"
        )
        assert not ir.writes[0].affine.is_affine

    def test_vector_width(self):
        ir = ir_of(
            "__kernel void k(__global const int8 *a, __global int8 *c)"
            "{ size_t i = get_global_id(0); c[i] = a[i]; }"
        )
        assert ir.vector_width == 8
        assert ir.accesses[0].element_bytes == 32

    def test_alu_and_mul_counting(self):
        ir = ir_of(
            "__kernel void k(__global const double *b, __global const double *c,"
            " __global double *a, const double q)"
            "{ size_t i = get_global_id(0); a[i] = b[i] + q * c[i]; }"
        )
        assert ir.alu_ops_per_iteration == 2
        assert ir.mul_ops_per_iteration == 1
        assert ir.uses_double

    def test_address_arithmetic_not_counted(self):
        ir = ir_of(
            "__kernel void k(__global const int *a, __global int *c)"
            "{ for (int i = 0; i < 4; i++) for (int j = 0; j < 8; j++)"
            "  c[i * 8 + j] = a[i * 8 + j]; }"
        )
        assert ir.alu_ops_per_iteration == 0
        assert ir.mul_ops_per_iteration == 0

    def test_control_flow_flag(self):
        ir = ir_of(
            "__kernel void k(__global int *c)"
            "{ size_t i = get_global_id(0); if (i > 1) c[i] = 1; }"
        )
        assert ir.has_control_flow


class TestAttributesAndUnroll:
    def test_attributes_surface(self):
        ir = ir_of(
            "__kernel __attribute__((reqd_work_group_size(64, 1, 1)))"
            "__attribute__((num_simd_work_items(8)))"
            " void k(__global int *c) { size_t i = get_global_id(0); c[i] = 1; }"
        )
        assert ir.attributes["reqd_work_group_size"] == (64, 1, 1)
        assert ir.attributes["num_simd_work_items"] == (8,)

    def test_unroll_from_pragma(self):
        ir = ir_of(
            "__kernel void k(__global int *c) {\n"
            "#pragma unroll 4\n"
            "for (int i = 0; i < 64; i++) c[i] = i; }"
        )
        assert ir.unroll_factor == 4

    def test_unroll_default(self):
        ir = ir_of(
            "__kernel void k(__global int *c)"
            "{ for (int i = 0; i < 64; i++) c[i] = i; }"
        )
        assert ir.unroll_factor == 1


class TestIndexStreams:
    def test_contiguous_stream(self):
        ir = ir_of(
            "__kernel void k(__global const int *a, __global int *c)"
            "{ size_t i = get_global_id(0); c[i] = a[i]; }"
        )
        stream = index_stream(ir, ir.writes[0], global_size=16)
        assert np.array_equal(stream, np.arange(16))
        assert stride_bytes(ir, 16) == [4, 4]

    def test_column_walk_stream(self):
        ir = ir_of(
            "__kernel void k(__global int *c)"
            "{ for (int j = 0; j < 4; j++) for (int i = 0; i < 8; i++)"
            "  c[i * 4 + j] = i; }"
        )
        stream = index_stream(ir, ir.writes[0])
        # column-major: first column is 0, 4, 8, ... then column 1
        assert np.array_equal(stream[:8], np.arange(8) * 4)
        assert stream[8] == 1
        assert stride_bytes(ir) == [16]

    def test_modulo_stream_covers_all_elements(self):
        ir = ir_of(
            "__kernel void k(__global int *c) {"
            " size_t g = get_global_id(0);"
            " size_t idx = (g % 8) * 8 + g / 8;"
            " c[idx] = 1; }"
        )
        stream = index_stream(ir, ir.writes[0], global_size=64)
        assert sorted(stream.tolist()) == list(range(64))

    def test_max_elements_window(self):
        ir = ir_of(
            "__kernel void k(__global int *c)"
            "{ for (int i = 0; i < 1000; i++) c[i] = i; }"
        )
        stream = index_stream(ir, ir.writes[0], max_elements=10)
        assert len(stream) == 10

    def test_classify_no_dominant_stride(self):
        ir = ir_of(
            "__kernel void k(__global int *c) {"
            " size_t g = get_global_id(0);"
            " size_t idx = (g * g) % 64;"
            " c[idx] = 1; }"
        )
        assert stride_bytes(ir, 64) == [None]

    @pytest.mark.parametrize(
        "index", ["(i - 5) / 2 + 3", "(i - 5) % 3 + 2", "(3 - i) / 2 + 4", "(3 - i) % 4 + 3"]
    )
    def test_negative_division_truncates_like_the_kernel(self, index):
        """The model's stream is the addresses the kernel reads: C
        division truncates toward zero, and ``%`` takes the dividend's
        sign, also when an intermediate is negative."""
        program = compile_source(
            "__kernel void k(__global const int *a, __global int *c)"
            f"{{ int i = get_global_id(0); c[i] = a[{index}]; }}"
        )
        ir = analyze(program)
        read = np.zeros(8, dtype=np.int32)
        args = {"a": BufferArg(np.arange(16, dtype=np.int32)), "c": BufferArg(read)}
        run_kernel(program, "k", (8,), args)
        stream = index_stream(ir, ir.reads[0], global_size=8)
        assert stream.tolist() == read.tolist()


class TestMemo:
    """Analysis and sampled strides are computed once and shared."""

    def test_each_kernel_of_a_program_has_its_own_ir(self):
        program = compile_source(
            "__kernel void first(__global int *c)"
            "{ size_t i = get_global_id(0); c[i] = 1; }\n"
            "__kernel void second(__global int *c)"
            "{ for (int i = 0; i < 8; i++) c[i] = 2; }\n"
        )
        first = analyze(program, "first")
        second = analyze(program, "second")
        assert (first.name, first.loop_mode) == ("first", LoopMode.NDRANGE)
        assert (second.name, second.loop_mode) == ("second", LoopMode.FLAT)
        assert analyze(program, "first") is first
        assert analyze(program, "second") is second

    def test_sampled_stride_follows_the_work_item_count(self):
        """A quadratic walk has one difference at 2 work-items and no
        dominant one at 4,096: the shared IR must give, at each size,
        what a fresh sample gives."""
        src = (
            "__kernel void k(__global int *c)"
            "{ size_t g = get_global_id(0); c[g * g] = 1; }"
        )
        shared = ir_of(src)
        seen = {}
        for items in (4096, 2, 4096):
            seen[items] = stride_bytes(shared, items)
            assert seen[items] == stride_bytes(ir_of(src), items)
        assert seen == {4096: [None], 2: [4]}

    def test_accesses_through_one_index_share_one_sample(self):
        ir = ir_of(
            "__kernel void k(__global const int *a, __global const int *b,"
            " __global int *c) { size_t g = get_global_id(0);"
            " size_t idx = (g % 8) * 8 + g / 8; c[idx] = a[idx] + b[idx]; }"
        )
        assert stride_bytes(ir, 64) == [32, 32, 32]
        assert len(ir.strides) == 1
