"""Sum reductions in the array lane (dot products and friends).

The array lane adds a reduction's items one at a time, in the
interpreter's order, so the two agree bit for bit. Float comparisons
against NumPy (whose pairwise ``sum``/``dot`` is another summation
order) use the pinned reduction budget from :mod:`repro.verify.tolerance`
instead of ad-hoc ``pytest.approx`` epsilons.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import UnsupportedKernelError
from repro.gpustream import run_gpu_stream
from repro.oclc import (
    BufferArg,
    compile_source,
    run_kernel,
    specialize,
    vectorize_kernel,
)
from repro.verify import max_ulp_diff, reduction_ulps


def assert_reduction_close(got: float, want: float, terms: int) -> None:
    """Two orderings of the same ``terms``-long sum agree within budget."""
    pair = np.asarray([got, want], dtype=np.float64)
    worst = max_ulp_diff(pair[:1], pair[1:])
    assert worst <= reduction_ulps(terms), (
        f"{got!r} vs {want!r}: {worst} ULPs exceeds the "
        f"{reduction_ulps(terms)}-ULP budget for a {terms}-term reduction"
    )

DOT_SRC = """
__kernel void dot_k(__global const double *a, __global const double *b,
                    __global double *c) {
    double acc = 0.0;
    for (int i = 0; i < N; i++) {
        acc += a[i] * b[i];
    }
    c[0] = acc;
}
"""


class TestReductions:
    def test_dot_product(self, rng):
        p = compile_source(DOT_SRC, {"N": "512"})
        a = rng.random(512)
        b = rng.random(512)
        c = np.zeros(1)
        vectorize_kernel(p).run((1,), {"a": BufferArg(a), "b": BufferArg(b), "c": BufferArg(c)})
        assert_reduction_close(c[0], np.dot(a, b), terms=512)

    def test_matches_interpreter(self, rng):
        p = compile_source(DOT_SRC, {"N": "128"})
        a = rng.random(128)
        b = rng.random(128)
        c_fast = np.zeros(1)
        c_ref = np.zeros(1)
        vectorize_kernel(p).run(
            (1,), {"a": BufferArg(a), "b": BufferArg(b), "c": BufferArg(c_fast)}
        )
        run_kernel(
            p, "dot_k", (1,), {"a": BufferArg(a), "b": BufferArg(b), "c": BufferArg(c_ref)}
        )
        assert c_fast.tobytes() == c_ref.tobytes()

    def test_float_sum_bit_identical_to_interpreter(self):
        # a pairwise sum gives -48.02827 here, the sequential one -48.028275
        src = """
__kernel void sum_k(__global const float *a, __global float *c) {
    float acc = 0.0f;
    for (int i = 0; i < 1000; i++)
        acc += a[i];
    c[0] = acc;
}
"""
        p = compile_source(src)
        a = np.random.default_rng(0).standard_normal(1000).astype(np.float32)
        fast = np.zeros(1, np.float32)
        ref = np.zeros(1, np.float32)
        vectorize_kernel(p).run((1,), {"a": BufferArg(a), "c": BufferArg(fast)})
        run_kernel(p, "sum_k", (1,), {"a": BufferArg(a), "c": BufferArg(ref)})
        assert fast.tobytes() == ref.tobytes()
        assert fast[0] != a.sum(dtype=np.float32)  # the pairwise order differs

    def test_assignment_form(self):
        src = """
__kernel void sum_k(__global const int *a, __global int *c) {
    int acc = 10;
    for (int i = 0; i < 16; i++)
        acc = acc + a[i];
    c[0] = acc;
}
"""
        p = compile_source(src)
        a = np.arange(16, dtype=np.int32)
        c = np.zeros(1, np.int32)
        vectorize_kernel(p).run((1,), {"a": BufferArg(a), "c": BufferArg(c)})
        assert c[0] == 10 + np.arange(16).sum()

    def test_commuted_assignment_form(self):
        src = """
__kernel void sum_k(__global const int *a, __global int *c) {
    int acc = 0;
    for (int i = 0; i < 8; i++)
        acc = a[i] + acc;
    c[0] = acc;
}
"""
        p = compile_source(src)
        a = np.arange(8, dtype=np.int32)
        c = np.zeros(1, np.int32)
        vectorize_kernel(p).run((1,), {"a": BufferArg(a), "c": BufferArg(c)})
        assert c[0] == 28

    def test_integer_wraparound_matches_sequential(self):
        src = """
__kernel void sum_k(__global const int *a, __global int *c) {
    int acc = 0;
    for (int i = 0; i < 64; i++)
        acc += a[i];
    c[0] = acc;
}
"""
        p = compile_source(src)
        a = np.full(64, 2**26, dtype=np.int32)
        fast = np.zeros(1, np.int32)
        ref = np.zeros(1, np.int32)
        vectorize_kernel(p).run((1,), {"a": BufferArg(a), "c": BufferArg(fast)})
        run_kernel(p, "sum_k", (1,), {"a": BufferArg(a), "c": BufferArg(ref)})
        assert fast[0] == ref[0]

    def test_two_independent_reductions(self, rng):
        src = """
__kernel void k(__global const double *a, __global double *c) {
    double s = 0.0;
    double sq = 0.0;
    for (int i = 0; i < 64; i++) {
        s += a[i];
        sq += a[i] * a[i];
    }
    c[0] = s;
    c[1] = sq;
}
"""
        p = compile_source(src)
        a = rng.random(64)
        c = np.zeros(2)
        vectorize_kernel(p).run((1,), {"a": BufferArg(a), "c": BufferArg(c)})
        assert_reduction_close(c[0], a.sum(), terms=64)
        assert_reduction_close(c[1], (a * a).sum(), terms=64)


class TestReductionRefusals:
    def test_prefix_sum_still_refused(self):
        """acc used by another statement in the body is not a pure
        reduction — vectorizing it would be wrong."""
        src = """
__kernel void k(__global const int *a, __global int *c) {
    int acc = 0;
    for (int i = 0; i < 8; i++) {
        acc = acc + a[i];
        c[i] = acc;
    }
}
"""
        with pytest.raises(UnsupportedKernelError):
            specialize(compile_source(src))

    def test_multiplicative_accumulation_refused(self):
        src = """
__kernel void k(__global const int *a, __global int *c) {
    int acc = 1;
    for (int i = 0; i < 8; i++)
        acc = acc * a[i];
    c[0] = acc;
}
"""
        with pytest.raises(UnsupportedKernelError):
            specialize(compile_source(src))

    def test_double_accumulation_statement_refused(self):
        src = """
__kernel void k(__global const int *a, __global int *c) {
    int acc = 0;
    for (int i = 0; i < 8; i++) {
        acc += a[i];
        acc += a[i];
    }
    c[0] = acc;
}
"""
        with pytest.raises(UnsupportedKernelError):
            specialize(compile_source(src))

    def test_float_sum_of_another_type_refused(self):
        # the interpreter adds each double item to the float and rounds,
        # which no sum of float items reproduces
        src = """
__kernel void k(__global const double *a, __global float *c) {
    float acc = 0.0f;
    for (int i = 0; i < 8; i++)
        acc += a[i];
    c[0] = acc;
}
"""
        with pytest.raises(UnsupportedKernelError, match="double items"):
            vectorize_kernel(compile_source(src))

    def test_self_referencing_rhs_refused(self):
        src = """
__kernel void k(__global const int *a, __global int *c) {
    int acc = 0;
    for (int i = 0; i < 8; i++)
        acc += acc + a[i];
    c[0] = acc;
}
"""
        with pytest.raises(UnsupportedKernelError):
            specialize(compile_source(src))


class TestGpuStreamDot:
    def test_dot_runs_and_validates(self):
        res = run_gpu_stream("gpu", array_bytes=1 << 20, ntimes=2, with_dot=True)
        assert "dot" in res
        assert res["dot"].moved_bytes == 2 * (1 << 20)
        assert res["dot"].bandwidth_gbs > 0

    def test_without_dot_by_default(self):
        res = run_gpu_stream("gpu", array_bytes=1 << 18, ntimes=1)
        assert "dot" not in res
