"""STREAM-style solution validation.

stream.c checks that the arrays, after all timed iterations, match the
analytically expected values to within an epsilon. Our kernels are
idempotent across repetitions (each reads inputs that no repetition
mutates), and every word of an array starts from the same value, so the
expected state is closed-form: per array, one word over the touched
prefix (:func:`~repro.core.kernels.reference` applied to one word of the
initial arrays) and the initial word over the untouched tail. Every
observed word is compared with its region's word; integer kernels must
match exactly, floating-point kernels to a relative epsilon, and a NaN
never matches.

A region is checked by its extremes, which allocates nothing: rounding
is monotone, so for a fixed expected word ``|fl(x - want)|`` over a
region peaks at the region's minimum or maximum; a NaN anywhere makes
both extremes NaN, and an infinity is an extreme. Only an array that
fails is compared word by word, to name its first wrong word.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .kernels import initial_arrays, reference
from .params import DataType, KernelName

__all__ = ["validate_solution", "EPSILON"]

#: relative tolerance per data type
EPSILON = {
    DataType.INT: 0.0,
    DataType.FLOAT: 1e-6,
    DataType.DOUBLE: 1e-13,
}


def _matches(got: np.ndarray, want: np.generic, eps: float) -> np.ndarray:
    """Mask of the words of ``got`` within tolerance of ``want``."""
    if eps == 0.0:
        return got == want
    # written as "within", not "not beyond": NaN compares False either way
    return np.abs(got - want) <= eps * np.maximum(np.abs(want), 1.0)


def _region_matches(got: np.ndarray, want: np.generic, eps: float) -> bool:
    """Whether every word of ``got`` is within tolerance of ``want``,
    decided by :func:`_matches` on the region's minimum and maximum."""
    if not got.size:
        return True
    extremes = np.array((got.min(), got.max()), dtype=got.dtype)
    return bool(_matches(extremes, want, eps).all())


def validate_solution(
    kernel: KernelName,
    dtype: DataType,
    observed: dict[str, np.ndarray],
    *,
    word_count: int,
    touched_words: int | None = None,
) -> None:
    """Raise :class:`~repro.errors.ValidationError` on any mismatch.

    ``observed`` holds arrays ``a``, ``b`` and ``c`` of ``word_count``
    words after the kernel ran; it updated the first ``touched_words``
    (default: all) and left the rest at their initial values.
    """
    tail = initial_arrays(1, dtype)
    head = reference(kernel, tail)
    n = word_count if touched_words is None else touched_words
    eps = EPSILON[dtype]
    for name in ("a", "b", "c"):
        got = observed[name]
        if got.shape != (word_count,):
            raise ValidationError(
                f"array {name!r}: shape {got.shape} != expected {(word_count,)}"
            )
        want_head, want_tail = head[name][0], tail[name][0]
        if _region_matches(got[:n], want_head, eps) and _region_matches(
            got[n:], want_tail, eps
        ):
            continue
        in_head = _matches(got[:n], want_head, eps)
        in_tail = _matches(got[n:], want_tail, eps)
        bad = np.concatenate(
            (np.flatnonzero(~in_head), np.flatnonzero(~in_tail) + n)
        )
        i = int(bad[0])
        want = want_head if i < n else want_tail
        raise ValidationError(
            f"kernel {kernel}: array {name!r} diverges at word {i}: "
            f"got {got[i]!r}, expected {want!r} "
            f"({bad.size} of {word_count} words wrong)"
        )
