"""The single pinned numeric-comparison policy for verification.

Every comparison the verification subsystem makes — interpreter vs
NumPy reference, device-observed vs interpreter, variant vs variant —
goes through this module, so the tolerance question is answered exactly
once instead of via ad-hoc ``pytest.approx`` calls scattered through
the test suite. Distances are measured in **ULPs** (units in the last
place): the number of representable values between two floats, which is
scale-free and catches "close in relative error but many roundings
apart" drift that a relative epsilon hides.

Audit note (float association order)
------------------------------------
The generated STREAM kernels are single elementwise expressions
(``TRIAD`` is ``a[i] = b[i] + q * c[i]``). The oclc interpreter
evaluates binary operators as per-element NumPy ufuncs in source
association — ``np.add(b_val, np.multiply(q, c_val))`` — with one
rounding per operation and no fused multiply-add. The NumPy STREAM
reference (:func:`repro.core.kernels.reference`) computes
``b[:n] + q * c[:n]``: the *same* association and the same IEEE-754
rounding per element. The two are therefore bitwise identical today —
0 ULPs observed across kernels, dtypes and vector widths. The budgets
below are deliberately small but non-zero for the float types to leave
room for a future fast path that reassociates (FMA contraction,
pairwise vector reduction) without being so loose that a real
miscompile slips through.

Reductions are different: reassociating a length-``n`` sum moves the
result by up to ``n`` ULPs in the worst case (the error of either
order is bounded by ``(n-1) * eps * sum|x|``, and for the same-signed
operands our DOT/SUM tests use, ``sum|x|`` equals the result). Tests
comparing a tree/partial-sum reduction against a sequential one use
:func:`reduction_ulps` instead of the elementwise budgets.
"""

from __future__ import annotations

import numpy as np

from ..core.params import DataType

__all__ = [
    "ULP_TOLERANCE",
    "ulp_diff",
    "max_ulp_diff",
    "within_tolerance",
    "reduction_ulps",
]

#: pinned elementwise ULP budget per data type: integers must be exact;
#: float budgets cover one reassociation of a 3-operand expression plus
#: headroom (see the audit note in the module docstring)
ULP_TOLERANCE: dict[DataType, int] = {
    DataType.INT: 0,
    DataType.FLOAT: 4,
    DataType.DOUBLE: 2,
}

#: per float dtype: (signed view type, unsigned diff type, sign-bit bias)
_ORDERED_INT = {
    np.dtype(np.float32): (np.int32, np.uint32, np.uint32(1 << 31)),
    np.dtype(np.float64): (np.int64, np.uint64, np.uint64(1 << 63)),
}


def ulp_diff(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Elementwise ULP distance between two same-dtype arrays.

    For float dtypes, the IEEE-754 bit patterns are mapped onto a
    monotonically ordered integer line (sign-magnitude flipped for
    negatives, so ``-0.0`` and ``+0.0`` coincide) and differenced; the
    result counts representable values between the operands. Matching
    NaNs count as 0, a NaN against a number as ``inf``. For integer
    dtypes the plain absolute difference is returned, so "0 ULPs" means
    exact equality in every dtype. Returns a float64 array.
    """
    got = np.asarray(got)
    want = np.asarray(want)
    if got.dtype != want.dtype:
        raise ValueError(f"dtype mismatch: {got.dtype} vs {want.dtype}")
    if got.shape != want.shape:
        raise ValueError(f"shape mismatch: {got.shape} vs {want.shape}")
    if got.dtype.kind in "iu":
        return np.abs(got.astype(np.float64) - want.astype(np.float64))
    mapped = _ORDERED_INT.get(got.dtype)
    if mapped is None:
        raise ValueError(f"unsupported dtype for ULP comparison: {got.dtype}")
    itype, utype, bias = mapped
    lo = np.iinfo(itype).min
    a = got.view(itype)
    b = want.view(itype)
    # order the bit patterns (sign-magnitude flipped for negatives, so
    # -0.0 and +0.0 coincide), then difference exactly in the unsigned
    # domain: a float64 detour would round away +-1 differences on
    # large bit patterns (53-bit mantissa vs 63-bit ordinals)
    ua = np.where(a >= 0, a, lo - a).view(utype) + bias
    ub = np.where(b >= 0, b, lo - b).view(utype) + bias
    out = np.where(ua >= ub, ua - ub, ub - ua).astype(np.float64)
    nan_a = np.isnan(got)
    nan_b = np.isnan(want)
    if nan_a.any() or nan_b.any():
        out = np.where(nan_a & nan_b, 0.0, out)
        out = np.where(nan_a ^ nan_b, np.inf, out)
    return out


def max_ulp_diff(got: np.ndarray, want: np.ndarray) -> float:
    """The worst elementwise ULP distance (0.0 for empty arrays)."""
    diffs = ulp_diff(got, want)
    return float(diffs.max()) if diffs.size else 0.0


def within_tolerance(
    dtype: DataType, got: np.ndarray, want: np.ndarray
) -> tuple[bool, float]:
    """Apply the pinned budget: returns ``(ok, worst_ulp)``."""
    worst = max_ulp_diff(got, want)
    return worst <= ULP_TOLERANCE[dtype], worst


def reduction_ulps(terms: int) -> int:
    """Documented ULP budget for comparing two summation orders.

    Reassociating an ``n``-term same-signed sum perturbs the result by
    at most ``~n`` ULPs (see the module docstring); ``2 * n`` adds a
    factor-of-two margin and a floor for tiny reductions.
    """
    return max(8, 2 * int(terms))
