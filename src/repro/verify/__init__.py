"""Differential verification: is the simulator computing the right thing?

The rest of this package asks "how fast"; this subsystem asks "is it
*correct*", with three independent pillars:

- :mod:`~repro.verify.conformance` — differential testing. Every
  generated kernel variant (vector widths, unrolls, loop managements)
  is executed by the oclc interpreter and compared against the NumPy
  host-stream reference under the pinned ULP budgets of
  :mod:`~repro.verify.tolerance`; all variants of one (kernel, dtype,
  size) must also agree with *each other*.
- :mod:`~repro.verify.metamorphic` — executable invariants over the
  performance models ("bandwidth ignores array contents", "contiguous
  beats strided", "bytes scale linearly"), each violation naming the
  pair of grid points that broke the law.
- :mod:`~repro.verify.golden` — a checked-in regression corpus of
  result fingerprints and kernel-output checksums, with a diff-style
  drift report and an explicit ``--update-golden`` re-pin flow.

The engine can run the conformance leg per point as an optional
``verify`` stage (off the timed path); ``mp-stream verify`` runs all
three pillars as a gate.
"""

from __future__ import annotations

from ..core.params import DataType, KernelName
from .conformance import (
    INTERP_WORD_LIMIT,
    PointVerdict,
    VariantReport,
    check_point,
    check_variants,
    interpret_point,
    output_checksum,
    random_point,
    shrink_failure,
    variant_grid,
    verify_device_outputs,
)
from .golden import (
    DEFAULT_GOLDEN_PATH,
    DEFAULT_SEARCH_GOLDEN_PATH,
    SEARCH_COMPARED_FIELDS,
    CorpusDiff,
    compute_corpus,
    compute_search_corpus,
    corpus_grid,
    diff_corpus,
    format_drift,
    load_corpus,
    save_corpus,
    search_scenarios,
)
from .metamorphic import LawReport, Violation, check_all
from .tolerance import (
    ULP_TOLERANCE,
    max_ulp_diff,
    reduction_ulps,
    ulp_diff,
    within_tolerance,
)

__all__ = [
    "ULP_TOLERANCE",
    "ulp_diff",
    "max_ulp_diff",
    "within_tolerance",
    "reduction_ulps",
    "INTERP_WORD_LIMIT",
    "PointVerdict",
    "VariantReport",
    "check_point",
    "check_variants",
    "interpret_point",
    "output_checksum",
    "random_point",
    "shrink_failure",
    "variant_grid",
    "verify_device_outputs",
    "Violation",
    "LawReport",
    "check_all",
    "CorpusDiff",
    "DEFAULT_GOLDEN_PATH",
    "DEFAULT_SEARCH_GOLDEN_PATH",
    "SEARCH_COMPARED_FIELDS",
    "corpus_grid",
    "compute_corpus",
    "search_scenarios",
    "compute_search_corpus",
    "load_corpus",
    "save_corpus",
    "diff_corpus",
    "format_drift",
    "conformance_combos",
]


def conformance_combos(grid: str = "small") -> list[tuple[KernelName, DataType, int]]:
    """(kernel, dtype, array_bytes) combos for ``mp-stream verify``.

    ``small`` covers both kernel shapes and the exact/rounded dtype
    split at one size; ``default`` covers the full kernel × dtype
    product plus a second size for the 3-array kernels.
    """
    if grid == "small":
        return [
            (kernel, dtype, 4096)
            for kernel in (KernelName.COPY, KernelName.TRIAD)
            for dtype in (DataType.INT, DataType.DOUBLE)
        ]
    if grid == "default":
        combos = [
            (kernel, dtype, 4096)
            for kernel in KernelName
            for dtype in DataType
        ]
        combos += [
            (kernel, DataType.DOUBLE, 8192)
            for kernel in (KernelName.ADD, KernelName.TRIAD)
        ]
        return combos
    raise ValueError(f"unknown conformance grid {grid!r} (use 'small' or 'default')")
