"""Differential conformance: interpreter vs reference vs device.

Pillar 1 of the verification subsystem. For any tuning-parameter point
the generated OpenCL-C is re-executed through the oclc *interpreter* —
a sequential semantic reference that shares nothing with the
array lane the simulated devices run — and compared
element-exact (int) or ULP-bounded (float/double, budgets pinned in
:mod:`repro.verify.tolerance`) against the NumPy STREAM reference
(:func:`repro.core.kernels.reference`). On top of single points,
:func:`check_variants` asserts that *all* vector-width / unroll /
loop-management / access-pattern variants of the same
``(kernel, dtype, size)`` agree with each other and with the reference:
different generated source, same semantics.

:func:`verify_device_outputs` is the engine-facing entry point: given
the arrays a device execution produced, it re-derives the expected
state (running the interpreter when the point is small enough,
otherwise comparing directly against the NumPy reference) and returns a
structured, fully deterministic verdict dict that lands in
``RunResult.detail["verify"]``.

The interpreter walks one Python loop iteration per work-item, so full
differential execution is capped at :data:`INTERP_WORD_LIMIT` words per
array; bigger points degrade to reference-only mode (still catching
wrong device output, just not interpreter drift).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.generator import generate
from ..core.kernels import KERNELS, SCALAR_Q, initial_arrays, reference
from ..core.params import (
    VECTOR_WIDTHS,
    AccessPattern,
    DataType,
    KernelName,
    LoopManagement,
    TuningParameters,
)
from ..errors import BenchmarkError, SweepError
from ..oclc import compile_source_cached
from ..oclc.interp import BufferArg, run_kernel
from .tolerance import ULP_TOLERANCE, max_ulp_diff

__all__ = [
    "INTERP_WORD_LIMIT",
    "PointVerdict",
    "VariantReport",
    "interpret_point",
    "output_checksum",
    "check_point",
    "variant_grid",
    "check_variants",
    "verify_device_outputs",
    "random_point",
    "shrink_failure",
]

#: words per array above which full interpretation is skipped (the
#: interpreter costs one Python iteration per work-item / loop trip)
INTERP_WORD_LIMIT = 4096

_ARRAY_NAMES = ("a", "b", "c")


def interpret_point(
    params: TuningParameters,
    *,
    initial: Mapping[str, np.ndarray] | None = None,
    max_words: int = INTERP_WORD_LIMIT,
) -> dict[str, np.ndarray]:
    """Run the point's generated kernel through the oclc interpreter.

    Generates the source, runs it through the (memoized) front-end and
    executes the checked program work-item by work-item. Returns the
    final array state; ``initial`` overrides the STREAM starting values
    (arrays are copied, never mutated). Refuses points larger than
    ``max_words`` words per array — use
    :func:`verify_device_outputs` for a size-aware comparison.
    """
    if params.word_count > max_words:
        raise BenchmarkError(
            f"point has {params.word_count} words/array, over the "
            f"interpretation cap of {max_words}"
        )
    gen = generate(params)
    checked = compile_source_cached(
        gen.source, {k: str(v) for k, v in gen.defines.items()}
    )
    if initial is None:
        initial = initial_arrays(params.word_count, params.dtype)
    arrays = {name: initial[name].copy() for name in _ARRAY_NAMES}
    spec = KERNELS[params.kernel]
    call: dict[str, object] = {
        name: BufferArg(arrays[name]) for name in (*spec.reads, spec.writes)
    }
    if spec.uses_scalar:
        call["q"] = SCALAR_Q
    run_kernel(checked, gen.kernel_name, gen.global_size, call, gen.local_size)
    return arrays


def output_checksum(arrays: Mapping[str, np.ndarray]) -> str:
    """Short content hash of the three arrays (dtype-tagged, bitwise)."""
    digest = hashlib.sha256()
    for name in _ARRAY_NAMES:
        arr = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{arr.dtype.str}:".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class PointVerdict:
    """Interpreter-vs-reference outcome for one grid point."""

    params: TuningParameters
    ok: bool
    #: worst elementwise ULP distance across the three arrays
    max_ulp: float
    #: bitwise content hash of the interpreter's final arrays
    checksum: str
    error: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else f"MISMATCH ({self.error})"
        return f"{self.params.describe()}: {status} [max {self.max_ulp:g} ulp]"


def _worst_array(
    got: Mapping[str, np.ndarray], want: Mapping[str, np.ndarray]
) -> tuple[str, float]:
    """(name, ulp) of the array with the largest elementwise distance."""
    worst_name, worst = "a", 0.0
    for name in _ARRAY_NAMES:
        ulp = max_ulp_diff(got[name], want[name])
        if ulp > worst:
            worst_name, worst = name, ulp
    return worst_name, worst


def _judge(
    params: TuningParameters,
    initial: Mapping[str, np.ndarray] | None = None,
) -> tuple[PointVerdict, dict[str, np.ndarray]]:
    """Interpret one point; return (verdict vs reference, final arrays)."""
    gen = generate(params)
    if initial is None:
        initial = initial_arrays(params.word_count, params.dtype)
    expected = reference(
        params.kernel, dict(initial), touched_words=gen.touched_words
    )
    got = interpret_point(params, initial=initial)
    name, worst = _worst_array(got, expected)
    tol = ULP_TOLERANCE[params.dtype]
    ok = worst <= tol
    error = (
        ""
        if ok
        else f"array {name!r} is {worst:g} ulp from the reference "
        f"(budget {tol})"
    )
    verdict = PointVerdict(
        params=params,
        ok=ok,
        max_ulp=worst,
        checksum=output_checksum(got),
        error=error,
    )
    return verdict, got


def check_point(
    params: TuningParameters,
    *,
    initial: Mapping[str, np.ndarray] | None = None,
) -> PointVerdict:
    """Interpret one point and judge it against the NumPy reference."""
    return _judge(params, initial)[0]


#: the variant axes exercised per (kernel, dtype, size): every loop
#: management, a spread of vector widths, unrolling, both pointer
#: styles and both access patterns
_VARIANT_AXES: tuple[dict[str, object], ...] = (
    dict(loop=LoopManagement.NDRANGE, vector_width=1),
    dict(loop=LoopManagement.NDRANGE, vector_width=2),
    dict(loop=LoopManagement.NDRANGE, vector_width=4),
    dict(loop=LoopManagement.NDRANGE, vector_width=8),
    dict(loop=LoopManagement.NDRANGE, vector_width=4, use_vload=True),
    dict(loop=LoopManagement.NDRANGE, vector_width=1, pattern=AccessPattern.STRIDED),
    dict(loop=LoopManagement.FLAT, vector_width=1),
    dict(loop=LoopManagement.FLAT, vector_width=1, unroll=4),
    dict(loop=LoopManagement.FLAT, vector_width=4, unroll=2),
    dict(loop=LoopManagement.FLAT, vector_width=8, use_vload=True),
    dict(loop=LoopManagement.FLAT, vector_width=1, pattern=AccessPattern.STRIDED),
    dict(loop=LoopManagement.NESTED, vector_width=1),
    dict(loop=LoopManagement.NESTED, vector_width=2, unroll=2),
)


def variant_grid(
    kernel: KernelName, dtype: DataType, array_bytes: int
) -> list[TuningParameters]:
    """All conformance variants of one ``(kernel, dtype, size)``.

    Combinations the parameter validation rejects for this size (for
    example a vector width that does not divide the array) are skipped.
    """
    points = []
    for changes in _VARIANT_AXES:
        try:
            points.append(
                TuningParameters(
                    kernel=kernel, array_bytes=array_bytes, dtype=dtype, **changes
                )  # type: ignore[arg-type]
            )
        except SweepError:
            continue
    return points


@dataclass(frozen=True)
class VariantReport:
    """Cross-variant agreement for one ``(kernel, dtype, size)``."""

    kernel: KernelName
    dtype: DataType
    array_bytes: int
    verdicts: tuple[PointVerdict, ...]
    #: every variant matched the reference *and* all other variants
    agree: bool
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.agree and all(v.ok for v in self.verdicts)

    def describe(self) -> str:
        worst = max((v.max_ulp for v in self.verdicts), default=0.0)
        status = "ok" if self.ok else f"FAIL ({self.error})"
        return (
            f"{self.kernel.value}/{self.dtype.cname} {self.array_bytes}B "
            f"x{len(self.verdicts)} variants: {status} [max {worst:g} ulp]"
        )


def check_variants(
    kernel: KernelName,
    dtype: DataType,
    array_bytes: int = 4096,
    *,
    variants: Sequence[TuningParameters] | None = None,
) -> VariantReport:
    """Interpret every variant and demand full agreement.

    Each variant must match the NumPy reference within the pinned ULP
    budget, and all variants must agree with each other — checked
    bitwise first (the checksums of conforming variants coincide today,
    all paths round identically), falling back to a pairwise ULP
    comparison against the first variant with twice the elementwise
    budget (two budget-respecting variants can legally sit ``2*tol``
    apart).
    """
    points = (
        list(variants)
        if variants is not None
        else variant_grid(kernel, dtype, array_bytes)
    )
    if not points:
        raise BenchmarkError(
            f"no valid conformance variants for {kernel.value}/{dtype.cname} "
            f"at {array_bytes} bytes"
        )
    verdicts = []
    outputs = []
    for params in points:
        verdict, got = _judge(params)
        verdicts.append(verdict)
        outputs.append(got)
    agree = True
    error = ""
    bad = [v for v in verdicts if not v.ok]
    if bad:
        agree = False
        error = f"{len(bad)} variant(s) diverged from the reference: {bad[0].error}"
    elif len({v.checksum for v in verdicts}) > 1:
        pair_budget = 2 * ULP_TOLERANCE[dtype]
        for first, other in zip(verdicts[1:], outputs[1:]):
            name, ulp = _worst_array(other, outputs[0])
            if ulp > pair_budget:
                agree = False
                error = (
                    f"variants disagree by {ulp:g} ulp on array {name!r}: "
                    f"{points[0].describe()} vs {first.params.describe()}"
                )
                break
    return VariantReport(
        kernel=kernel,
        dtype=dtype,
        array_bytes=array_bytes,
        verdicts=tuple(verdicts),
        agree=agree,
        error=error,
    )


def verify_device_outputs(
    params: TuningParameters,
    gen: "object",
    observed: Mapping[str, np.ndarray],
    *,
    corrupt: Callable[[dict[str, np.ndarray]], bool] | None = None,
) -> dict[str, object]:
    """Differential verdict for one executed point (engine entry point).

    ``observed`` is the device's final array state; ``gen`` the
    generated kernel it ran (for ``touched_words``). Small points run
    the full differential chain (interpreter re-execution compared to
    both the NumPy reference and the device); points over
    :data:`INTERP_WORD_LIMIT` compare the device directly against the
    reference (``mode="reference"``). ``corrupt`` is the fault
    framework's miscompile hook: it may flip a word of the re-derived
    arrays before comparison and returns whether it did.

    The verdict dict is pure JSON scalars and **deterministic** — no
    wall-clock, no iteration order — so a resumed campaign restores
    byte-identical verdicts (asserted in the resilience tests).
    """
    initial = initial_arrays(params.word_count, params.dtype)
    touched = getattr(gen, "touched_words", None)
    expected = reference(params.kernel, initial, touched_words=touched)
    if params.word_count <= INTERP_WORD_LIMIT:
        mode = "differential"
        derived = interpret_point(params, initial=initial)
    else:
        mode = "reference"
        derived = {name: expected[name].copy() for name in _ARRAY_NAMES}
    corrupted = bool(corrupt(derived)) if corrupt is not None else False

    ref_name, ref_ulp = _worst_array(derived, expected)
    dev_name, dev_ulp = _worst_array(dict(observed), derived)
    tol = ULP_TOLERANCE[params.dtype]
    ok = ref_ulp <= tol and dev_ulp <= tol
    if ok:
        error = ""
    elif ref_ulp > tol:
        error = (
            f"{mode} check: re-derived array {ref_name!r} is {ref_ulp:g} ulp "
            f"from the reference (budget {tol})"
        )
    else:
        error = (
            f"{mode} check: device array {dev_name!r} is {dev_ulp:g} ulp "
            f"from the re-derived output (budget {tol})"
        )
    return {
        "mode": mode,
        "ok": ok,
        "tolerance_ulp": float(tol),
        "max_ulp_vs_reference": float(ref_ulp),
        "max_ulp_device": float(dev_ulp),
        "checksum": output_checksum(derived),
        "checked_words": int(params.word_count),
        "corrupted": corrupted,
        "error": error,
    }


def random_point(
    rng: "np.random.Generator",
    *,
    kernels: Sequence[KernelName] = tuple(KERNELS),
    dtypes: Sequence[DataType] = tuple(DataType),
    max_bytes: int = 16384,
) -> TuningParameters:
    """A random, always-valid grid point for fuzzing conformance.

    Sizes stay small enough to interpret; every draw respects the
    parameter-validation rules by construction, so a fuzz loop never
    wastes iterations on invalid combinations.
    """
    sizes = [s for s in (1024, 2048, 4096, 8192, 16384) if s <= max_bytes]
    loop = LoopManagement(rng.choice([m.value for m in LoopManagement]))
    width = int(rng.choice(VECTOR_WIDTHS))
    return TuningParameters(
        kernel=KernelName(rng.choice([k.value for k in kernels])),
        array_bytes=int(rng.choice(sizes)),
        dtype=dtypes[int(rng.integers(len(dtypes)))],
        vector_width=width,
        pattern=AccessPattern(
            rng.choice([AccessPattern.CONTIGUOUS.value, AccessPattern.STRIDED.value])
        ),
        loop=loop,
        unroll=int(rng.choice([1, 2, 4])) if loop is not LoopManagement.NDRANGE else 1,
        use_vload=bool(rng.integers(2)) if width > 1 else False,
    )


def shrink_failure(
    params: TuningParameters,
    still_fails: Callable[[TuningParameters], bool],
) -> TuningParameters:
    """Greedy shrink of a failing fuzz point toward the simplest repro.

    Repeatedly tries one simplification at a time (drop vload, drop
    unrolling, contiguous pattern, NDRange loop, scalar width, minimal
    size) and keeps any change under which ``still_fails`` holds.
    Invalid intermediate combinations are skipped. Deterministic, so
    the printed "offending ParamPoint" is stable for a given seed.
    """
    simplifications: tuple[dict[str, object], ...] = (
        dict(use_vload=False),
        dict(unroll=1),
        dict(pattern=AccessPattern.CONTIGUOUS),
        dict(loop=LoopManagement.NDRANGE, unroll=1),
        dict(vector_width=1, use_vload=False),
        dict(array_bytes=1024),
    )
    current = params
    changed = True
    while changed:
        changed = False
        for changes in simplifications:
            if all(getattr(current, k) == v for k, v in changes.items()):
                continue
            try:
                candidate = current.with_(**changes)
            except SweepError:
                continue
            if still_fails(candidate):
                current = candidate
                changed = True
    return current
