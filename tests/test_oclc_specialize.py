"""Array lane vs the interpreter on handwritten kernels, plus the
specializer's safety refusals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import UnsupportedKernelError
from repro.oclc import (
    BufferArg,
    compile_source,
    run_kernel,
    specialize,
    vectorize_kernel,
)


def both_paths(src, global_size, defines=None, **arrays):
    """Run interpreter and array lane on copies of the same inputs."""
    p = compile_source(src, defines)
    name = p.kernel().name
    interp_arrays = {k: v.copy() for k, v in arrays.items() if isinstance(v, np.ndarray)}
    spec_arrays = {k: v.copy() for k, v in arrays.items() if isinstance(v, np.ndarray)}
    scalars = {k: v for k, v in arrays.items() if not isinstance(v, np.ndarray)}
    run_kernel(
        p, name, global_size,
        {**{k: BufferArg(v) for k, v in interp_arrays.items()}, **scalars},
    )
    vectorize_kernel(p).run(
        global_size,
        {**{k: BufferArg(v) for k, v in spec_arrays.items()}, **scalars},
    )
    return interp_arrays, spec_arrays


class TestEquivalence:
    def test_ndrange_copy(self):
        a = np.arange(64, dtype=np.int32)
        i, s = both_paths(
            "__kernel void k(__global const int *a, __global int *c)"
            "{ size_t i = get_global_id(0); c[i] = a[i]; }",
            (64,),
            a=a,
            c=np.zeros(64, np.int32),
        )
        assert np.array_equal(i["c"], s["c"])

    def test_flat_scale_double(self):
        c = np.linspace(0, 1, 32)
        i, s = both_paths(
            "__kernel void k(__global const double *c, __global double *b, const double q)"
            "{ for (int i = 0; i < 32; i++) b[i] = q * c[i]; }",
            (1,),
            c=c,
            b=np.zeros(32),
            q=3.0,
        )
        assert np.allclose(i["b"], s["b"])
        assert np.allclose(s["b"], 3.0 * c)

    def test_nested_add(self):
        a = np.arange(48, dtype=np.int32)
        b = np.arange(48, dtype=np.int32)[::-1].copy()
        i, s = both_paths(
            "__kernel void k(__global const int *a, __global const int *b, __global int *c)"
            "{ for (int i = 0; i < 6; i++) for (int j = 0; j < 8; j++)"
            "  { int idx = i * 8 + j; c[idx] = a[idx] + b[idx]; } }",
            (1,),
            a=a,
            b=b,
            c=np.zeros(48, np.int32),
        )
        assert np.array_equal(i["c"], s["c"])

    def test_strided_column_walk(self):
        a = np.arange(64, dtype=np.int32)
        i, s = both_paths(
            "__kernel void k(__global const int *a, __global int *c)"
            "{ for (int j = 0; j < 8; j++) for (int i = 0; i < 8; i++)"
            "  { int idx = i * 8 + j; c[idx] = a[idx]; } }",
            (1,),
            a=a,
            c=np.zeros(64, np.int32),
        )
        assert np.array_equal(i["c"], s["c"])

    def test_ndrange_strided_modulo_index(self):
        a = np.arange(64, dtype=np.int32)
        i, s = both_paths(
            "__kernel void k(__global const int *a, __global int *c) {"
            " size_t g = get_global_id(0);"
            " size_t idx = (g % 8) * 8 + g / 8;"
            " c[idx] = a[idx]; }",
            (64,),
            a=a,
            c=np.zeros(64, np.int32),
        )
        assert np.array_equal(i["c"], s["c"])

    def test_vector_triad(self):
        n = 64
        b = np.arange(n, dtype=np.int32)
        c = np.arange(n, dtype=np.int32)[::-1].copy()
        i, s = both_paths(
            "__kernel void k(__global const int4 *b, __global const int4 *c,"
            " __global int4 *a, const int q)"
            "{ size_t i = get_global_id(0); a[i] = b[i] + q * c[i]; }",
            (n // 4,),
            a=np.zeros(n, np.int32),
            b=b,
            c=c,
            q=3,
        )
        assert np.array_equal(i["a"], s["a"])
        assert np.array_equal(s["a"], b + 3 * c)

    def test_int_wraparound_matches(self):
        a = np.full(8, 2**30, dtype=np.int32)
        i, s = both_paths(
            "__kernel void k(__global const int *a, __global int *c)"
            "{ size_t i = get_global_id(0); c[i] = a[i] * 4; }",
            (8,),
            a=a,
            c=np.zeros(8, np.int32),
        )
        assert np.array_equal(i["c"], s["c"])

    def test_math_builtin(self):
        a = np.array([-1.0, 4.0, 9.0, 16.0])
        i, s = both_paths(
            "__kernel void k(__global const double *a, __global double *c)"
            "{ size_t i = get_global_id(0); c[i] = sqrt(fabs(a[i])); }",
            (4,),
            a=a,
            c=np.zeros(4),
        )
        assert np.allclose(i["c"], s["c"], equal_nan=True)

    def test_unroll_pragma_is_semantically_neutral(self):
        a = np.arange(32, dtype=np.int32)
        i, s = both_paths(
            "__kernel void k(__global const int *a, __global int *c) {\n"
            "#pragma unroll 4\n"
            "for (int i = 0; i < 32; i++) c[i] = a[i]; }",
            (1,),
            a=a,
            c=np.zeros(32, np.int32),
        )
        assert np.array_equal(i["c"], s["c"])


class TestRefusals:
    def test_control_flow_refused(self):
        p = compile_source(
            "__kernel void k(__global int *a) {"
            " size_t i = get_global_id(0);"
            " if (i > 2) a[i] = 1; }"
        )
        with pytest.raises(UnsupportedKernelError):
            specialize(p)

    def test_read_write_same_buffer_refused(self):
        p = compile_source(
            "__kernel void k(__global int *a)"
            "{ for (int i = 0; i < 7; i++) a[i + 1] = a[i]; }"
        )
        with pytest.raises(UnsupportedKernelError):
            specialize(p)

    def test_loop_carried_scalar_refused(self):
        p = compile_source(
            "__kernel void k(__global const int *a, __global int *c) {"
            " int acc = 0;"
            " for (int i = 0; i < 8; i++) { acc = acc + a[i]; c[i] = acc; } }"
        )
        # acc reads and writes a local across iterations: the analysis
        # must refuse rather than let execution silently diverge.
        with pytest.raises(UnsupportedKernelError):
            specialize(p)

    def test_multidimensional_ndrange_refused(self):
        p = compile_source(
            "__kernel void k(__global int *a)"
            "{ size_t i = get_global_id(0); a[i] = 1; }"
        )
        with pytest.raises(UnsupportedKernelError):
            vectorize_kernel(p).run(
                (2, 2), {"a": BufferArg(np.zeros(4, np.int32))}
            )
