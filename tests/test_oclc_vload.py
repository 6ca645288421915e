"""vloadN/vstoreN builtins across the whole front-end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BenchmarkRunner,
    KernelName,
    LoopManagement,
    TuningParameters,
    generate,
)
from repro.errors import InterpError, SemanticError, SweepError
from repro.oclc import (
    BufferArg,
    analyze,
    compile_source,
    run_kernel,
    vectorize_kernel,
)
from repro.units import KIB

VLOAD_COPY = """
__kernel void k(__global const int *a, __global int *c) {
    size_t i = get_global_id(0);
    vstore4(vload4(i, a), i, c);
}
"""


class TestSemantics:
    def test_vload_type(self):
        from repro.ocl import types as T

        p = compile_source(VLOAD_COPY)
        assert p.param_types["k"]["a"].pointee is T.INT

    def test_vload_arity(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel void k(__global int *a) { int4 v = vload4(0); a[0] = v.x; }"
            )

    def test_vstore_data_width_checked(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel void k(__global int *a) {"
                " int8 v = (int8)(0); vstore4(v, 0, a); }"
            )

    def test_vstore_element_kind_checked(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel void k(__global double *a) {"
                " int4 v = (int4)(0); vstore4(v, 0, a); }"
            )

    def test_pointer_must_be_scalar(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel void k(__global int4 *a) { int4 v = vload4(0, a); a[0] = v; }"
            )

    def test_offset_must_be_integer(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel void k(__global int *a) { int4 v = vload4(1.5, a); a[0] = v.x; }"
            )


class TestExecution:
    def test_interpreter(self):
        p = compile_source(VLOAD_COPY)
        a = np.arange(32, dtype=np.int32)
        c = np.zeros(32, dtype=np.int32)
        run_kernel(p, "k", (8,), {"a": BufferArg(a), "c": BufferArg(c)})
        assert np.array_equal(c, a)

    def test_specializer_matches(self):
        p = compile_source(VLOAD_COPY)
        a = np.arange(32, dtype=np.int32)
        c = np.zeros(32, dtype=np.int32)
        vectorize_kernel(p).run((8,), {"a": BufferArg(a), "c": BufferArg(c)})
        assert np.array_equal(c, a)

    def test_arithmetic_on_loaded_vectors(self):
        src = """
__kernel void k(__global const double *b, __global const double *c,
                __global double *a, const double q) {
    size_t i = get_global_id(0);
    vstore2(vload2(i, b) + q * vload2(i, c), i, a);
}
"""
        p = compile_source(src)
        b = np.arange(16, dtype=np.float64)
        c = np.ones(16)
        a = np.zeros(16)
        run_kernel(
            p, "k", (8,), {"b": BufferArg(b), "c": BufferArg(c), "a": BufferArg(a), "q": 3.0}
        )
        assert np.allclose(a, b + 3.0)

    def test_out_of_bounds(self):
        p = compile_source(VLOAD_COPY)
        a = np.arange(30, dtype=np.int32)  # not 8 full int4 groups
        c = np.zeros(32, dtype=np.int32)
        with pytest.raises(InterpError):
            run_kernel(p, "k", (8,), {"a": BufferArg(a), "c": BufferArg(c)})


class TestAnalysis:
    def test_accesses_have_vector_width(self):
        ir = analyze(compile_source(VLOAD_COPY))
        assert len(ir.accesses) == 2
        assert all(a.element_bytes == 16 for a in ir.accesses)
        assert ir.vector_width == 4
        by_write = {a.is_write: a.param for a in ir.accesses}
        assert by_write == {False: "a", True: "c"}

    def test_affine_stride(self):
        ir = analyze(compile_source(VLOAD_COPY))
        assert all(a.affine.is_affine for a in ir.accesses)
        assert all(a.affine.stride_of("gid0") == 1 for a in ir.accesses)


class TestGeneratorIntegration:
    def test_use_vload_validation(self):
        with pytest.raises(SweepError):
            TuningParameters(use_vload=True, vector_width=1)

    def test_generated_source_uses_vload(self):
        gen = generate(
            TuningParameters(array_bytes=64 * KIB, vector_width=8, use_vload=True)
        )
        assert "vload8" in gen.source and "vstore8" in gen.source
        assert "int *" in gen.source  # scalar pointers

    @pytest.mark.parametrize("kernel", list(KernelName))
    def test_styles_agree_functionally_and_in_bandwidth(self, kernel):
        """Pointer-vector style and vload style are the same access
        pattern; the models must price them identically."""
        base = TuningParameters(
            array_bytes=64 * KIB,
            vector_width=4,
            kernel=kernel,
            loop=LoopManagement.FLAT,
        )
        runner = BenchmarkRunner("aocl", ntimes=1)
        pointer = runner.run(base)
        vload = runner.run(base.with_(use_vload=True))
        assert pointer.ok and vload.ok
        assert vload.bandwidth_gbs == pytest.approx(pointer.bandwidth_gbs, rel=0.01)
