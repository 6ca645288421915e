"""STREAM kernel definitions and numpy reference semantics.

The canonical array roles follow McCalpin's STREAM:

========  =====================  =========  =========
kernel    operation              reads      writes
========  =====================  =========  =========
COPY      ``c[i] = a[i]``        a          c
SCALE     ``b[i] = q * c[i]``    c          b
ADD       ``c[i] = a[i]+b[i]``   a, b       c
TRIAD     ``a[i] = b[i]+q*c[i]`` b, c       a
========  =====================  =========  =========

:func:`reference` computes the expected output with numpy so the runner
can validate what the simulated device produced; initial values mirror
stream.c (``a=1, b=2, c=0``) scaled into the integer range for INT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DataType, KernelName

__all__ = [
    "KernelSpec",
    "KERNELS",
    "SCALAR_Q",
    "initial_arrays",
    "reference",
]

#: the STREAM scalar (stream.c also uses 3.0)
SCALAR_Q = 3


@dataclass(frozen=True)
class KernelSpec:
    """Static description of one STREAM kernel."""

    name: KernelName
    #: c-expression template; placeholders: dst, src1, src2, q
    expression: str
    reads: tuple[str, ...]
    writes: str

    @property
    def uses_scalar(self) -> bool:
        return "{q}" in self.expression


KERNELS: dict[KernelName, KernelSpec] = {
    KernelName.COPY: KernelSpec(
        name=KernelName.COPY,
        expression="{dst} = {src1};",
        reads=("a",),
        writes="c",
    ),
    KernelName.SCALE: KernelSpec(
        name=KernelName.SCALE,
        expression="{dst} = {q} * {src1};",
        reads=("c",),
        writes="b",
    ),
    KernelName.ADD: KernelSpec(
        name=KernelName.ADD,
        expression="{dst} = {src1} + {src2};",
        reads=("a", "b"),
        writes="c",
    ),
    KernelName.TRIAD: KernelSpec(
        name=KernelName.TRIAD,
        expression="{dst} = {src1} + {q} * {src2};",
        reads=("b", "c"),
        writes="a",
    ),
}


def _dtype_of(dtype: DataType) -> np.dtype:
    return np.dtype(
        {DataType.INT: np.int32, DataType.FLOAT: np.float32, DataType.DOUBLE: np.float64}[
            dtype
        ]
    )


def initial_arrays(word_count: int, dtype: DataType) -> dict[str, np.ndarray]:
    """STREAM's initial values: a=1, b=2, c=0 (per scalar word)."""
    dt = _dtype_of(dtype)
    return {
        "a": np.full(word_count, 1, dtype=dt),
        "b": np.full(word_count, 2, dtype=dt),
        "c": np.zeros(word_count, dtype=dt),
    }


def reference(
    kernel: KernelName,
    arrays: dict[str, np.ndarray],
    *,
    touched_words: int | None = None,
) -> dict[str, np.ndarray]:
    """Expected array state after one kernel execution.

    ``touched_words`` limits the updated region (the 2-D variants may
    not cover a ragged tail of the allocation); untouched words keep
    their prior values. ``arrays`` is not mutated, and dtype semantics
    (int32/float32/float64 arithmetic) follow the input arrays.

    Association order is part of the contract, because differential
    verification treats this function as ground truth. Each kernel is
    one elementwise NumPy expression evaluated in source order:
    ``TRIAD`` is ``b + (q * c)``, one rounding per operation and **no**
    fused multiply-add. The oclc interpreter evaluates the generated
    OpenCL-C the same way, which is why the pinned ULP budgets in
    :mod:`repro.verify.tolerance` can be tight.
    """
    out = {k: v.copy() for k, v in arrays.items()}
    n = touched_words if touched_words is not None else len(out["a"])
    a, b, c = out["a"], out["b"], out["c"]
    q = a.dtype.type(SCALAR_Q)
    if kernel is KernelName.COPY:
        c[:n] = a[:n]
    elif kernel is KernelName.SCALE:
        b[:n] = q * c[:n]
    elif kernel is KernelName.ADD:
        c[:n] = a[:n] + b[:n]
    elif kernel is KernelName.TRIAD:
        a[:n] = b[:n] + q * c[:n]
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown kernel {kernel}")
    return out
