"""Paper-figure reproduction: one entry point per evaluation artifact.

Each function runs the exact workload the corresponding figure of the
paper plots and returns ``{series_name: [(x, bandwidth_gbs), ...]}``
(or a row list for the table), so benches, tests, the CLI and
EXPERIMENTS.md all share one source of truth.

Sizes are parameters so the test suite can exercise the full pipeline
with small arrays while the benchmark harness runs the paper's range.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    AccessPattern,
    BenchmarkRunner,
    DataType,
    KernelName,
    LoopManagement,
    StreamLocus,
    TuningParameters,
    optimal_loop_for,
)
from .ocl.platform import get_platforms
from .units import MIB

__all__ = [
    "PAPER_TARGET_ORDER",
    "DEFAULT_SIZES",
    "FIG1_WIDTHS",
    "fig1a_array_size",
    "fig1b_vector_width",
    "fig2_contiguity",
    "fig3_loop_management",
    "fig4a_all_kernels",
    "fig4b_aocl_optimizations",
    "targets_table",
    "pcie_streams",
    "ablation_unroll",
    "ablation_dtype",
    "ablation_preshaping",
]

#: the paper's presentation order of targets
PAPER_TARGET_ORDER = ("aocl", "sdaccel", "cpu", "gpu")

#: fig 1a/2 array sizes (bytes per array): 1 KiB ... 64 MiB
DEFAULT_SIZES = tuple(1024 * 4**i for i in range(9))

FIG1_WIDTHS = (1, 2, 4, 8, 16)

Series = dict[str, list[tuple[float, float]]]


#: one engine per (target, ntimes), shared by every figure: fig1a and
#: fig2 reuse each other's programs and plans from its build cache, so
#: generating a full figure set compiles each distinct kernel once
_RUNNERS: dict[tuple[str, int], BenchmarkRunner] = {}


def _runner(target: str, ntimes: int) -> BenchmarkRunner:
    runner = _RUNNERS.get((target, ntimes))
    if runner is None:
        runner = _RUNNERS[target, ntimes] = BenchmarkRunner(target, ntimes=ntimes)
    return runner


def _optimal_params(target: str, **overrides: object) -> TuningParameters:
    return TuningParameters(loop=optimal_loop_for(target)).with_(**overrides)


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------


def fig1a_array_size(
    sizes: Sequence[int] = DEFAULT_SIZES,
    targets: Sequence[str] = PAPER_TARGET_ORDER,
    *,
    ntimes: int = 3,
) -> Series:
    """Fig 1a: COPY bandwidth vs array size, optimal loop mode per target."""
    series: Series = {}
    for target in targets:
        runner = _runner(target, ntimes)
        points = []
        for size in sizes:
            result = runner.run(_optimal_params(target, array_bytes=size))
            if result.ok:
                points.append((size / MIB, result.bandwidth_gbs))
        series[target] = points
    return series


def fig1b_vector_width(
    widths: Sequence[int] = FIG1_WIDTHS,
    targets: Sequence[str] = PAPER_TARGET_ORDER,
    *,
    array_bytes: int = 4 * MIB,
    ntimes: int = 3,
) -> Series:
    """Fig 1b: COPY bandwidth vs vector width at 4 MB."""
    series: Series = {}
    for target in targets:
        runner = _runner(target, ntimes)
        points = []
        for width in widths:
            result = runner.run(
                _optimal_params(target, array_bytes=array_bytes, vector_width=width)
            )
            if result.ok:
                points.append((float(width), result.bandwidth_gbs))
        series[target] = points
    return series


# ---------------------------------------------------------------------------
# Figure 2
# ---------------------------------------------------------------------------


def fig2_contiguity(
    sizes: Sequence[int] = DEFAULT_SIZES,
    targets: Sequence[str] = PAPER_TARGET_ORDER,
    *,
    ntimes: int = 3,
) -> Series:
    """Fig 2: contiguous vs strided (column-major walk) across sizes."""
    series: Series = {}
    for target in targets:
        runner = _runner(target, ntimes)
        for pattern in (AccessPattern.CONTIGUOUS, AccessPattern.STRIDED):
            points = []
            for size in sizes:
                result = runner.run(
                    _optimal_params(target, array_bytes=size, pattern=pattern)
                )
                if result.ok:
                    points.append((size / MIB, result.bandwidth_gbs))
            series[f"{target}-{'contig' if pattern is AccessPattern.CONTIGUOUS else 'strided'}"] = points
    return series


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------


def fig3_loop_management(
    targets: Sequence[str] = PAPER_TARGET_ORDER,
    *,
    array_bytes: int = 4 * MIB,
    ntimes: int = 3,
) -> Series:
    """Fig 3: NDRange vs flat loop vs nested loop, per target.

    Returned y values are in GB/s (the paper's axis is KB/s; scale by
    1e6 to compare)."""
    series: Series = {}
    for mode in (LoopManagement.NDRANGE, LoopManagement.FLAT, LoopManagement.NESTED):
        points = []
        for i, target in enumerate(targets):
            runner = _runner(target, ntimes)
            result = runner.run(
                TuningParameters(array_bytes=array_bytes, loop=mode)
            )
            if result.ok:
                points.append((float(i), result.bandwidth_gbs))
        series[f"kernel-loop-{mode.value}" if mode is not LoopManagement.NDRANGE else "ndrange-kernel"] = points
    return series


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------


def fig4a_all_kernels(
    targets: Sequence[str] = PAPER_TARGET_ORDER,
    *,
    array_bytes: int = 4 * MIB,
    ntimes: int = 3,
) -> Series:
    """Fig 4a: all four STREAM kernels on all targets (optimal loop mode)."""
    series: Series = {k.value: [] for k in KernelName}
    for i, target in enumerate(targets):
        runner = _runner(target, ntimes)
        for kernel in KernelName:
            result = runner.run(
                _optimal_params(target, array_bytes=array_bytes, kernel=kernel)
            )
            if result.ok:
                series[kernel.value].append((float(i), result.bandwidth_gbs))
    return series


def fig4b_aocl_optimizations(
    scales: Sequence[int] = FIG1_WIDTHS,
    *,
    array_bytes: int = 4 * MIB,
    ntimes: int = 3,
    work_group: int = 256,
) -> Series:
    """Fig 4b: AOCL native vectorization vs SIMD work-items vs compute units.

    N is the knob value; failed builds (resource overflow) simply end a
    series early, which is itself a finding the paper discusses.
    """
    runner = _runner("aocl", ntimes)
    series: Series = {"vector-width": [], "simd-work-items": [], "compute-units": []}
    for n in scales:
        r = runner.run(
            TuningParameters(
                array_bytes=array_bytes,
                loop=LoopManagement.FLAT,
                vector_width=n,
            )
        )
        if r.ok:
            series["vector-width"].append((float(n), r.bandwidth_gbs))
        r = runner.run(
            TuningParameters(
                array_bytes=array_bytes,
                loop=LoopManagement.NDRANGE,
                reqd_work_group_size=work_group,
                num_simd_work_items=n,
            )
        )
        if r.ok:
            series["simd-work-items"].append((float(n), r.bandwidth_gbs))
        r = runner.run(
            TuningParameters(
                array_bytes=array_bytes,
                loop=LoopManagement.NDRANGE,
                reqd_work_group_size=work_group,
                num_compute_units=n,
            )
        )
        if r.ok:
            series["compute-units"].append((float(n), r.bandwidth_gbs))
    return series


# ---------------------------------------------------------------------------
# The setup table and the extra experiments
# ---------------------------------------------------------------------------


def targets_table() -> list[dict[str, object]]:
    """§IV's experimental-setup table, from the live device registry."""
    rows = []
    for platform in get_platforms():
        for device in platform.devices:
            info = device.info()
            rows.append(
                {
                    "target": device.short_name,
                    "device": info["name"],
                    "platform": platform.name,
                    "type": info["type"],
                    "peak_bw_gbs": info["peak_global_bandwidth_gbs"],
                    "compute_units": info["max_compute_units"],
                }
            )
    order = {name: i for i, name in enumerate(PAPER_TARGET_ORDER)}
    rows.sort(key=lambda r: order.get(str(r["target"]), 99))
    return rows


def pcie_streams(
    sizes: Sequence[int] = DEFAULT_SIZES,
    targets: Sequence[str] = ("gpu", "aocl", "sdaccel"),
    *,
    ntimes: int = 3,
) -> Series:
    """§III stream locus: host<->device bandwidth vs transfer size."""
    series: Series = {}
    for target in targets:
        runner = _runner(target, ntimes)
        points = []
        for size in sizes:
            result = runner.run(
                TuningParameters(array_bytes=size, locus=StreamLocus.HOST)
            )
            if result.ok:
                points.append((size / MIB, result.bandwidth_gbs))
        series[target] = points
    return series


def ablation_unroll(
    factors: Sequence[int] = (1, 2, 4, 8, 16),
    targets: Sequence[str] = ("aocl", "sdaccel"),
    *,
    array_bytes: int = 4 * MIB,
    ntimes: int = 3,
) -> Series:
    """§III unroll factor (no paper figure): flat loop, unroll sweep."""
    series: Series = {}
    for target in targets:
        runner = _runner(target, ntimes)
        points = []
        for u in factors:
            result = runner.run(
                TuningParameters(
                    array_bytes=array_bytes, loop=LoopManagement.FLAT, unroll=u
                )
            )
            if result.ok:
                points.append((float(u), result.bandwidth_gbs))
        series[target] = points
    return series


def ablation_dtype(
    targets: Sequence[str] = PAPER_TARGET_ORDER,
    *,
    array_bytes: int = 4 * MIB,
    ntimes: int = 3,
) -> Series:
    """§III data type: int vs double for every kernel, per target."""
    series: Series = {}
    for target in targets:
        runner = _runner(target, ntimes)
        for dtype in (DataType.INT, DataType.DOUBLE):
            points = []
            for i, kernel in enumerate(KernelName):
                result = runner.run(
                    _optimal_params(
                        target, array_bytes=array_bytes, kernel=kernel, dtype=dtype
                    )
                )
                if result.ok:
                    points.append((float(i), result.bandwidth_gbs))
            series[f"{target}-{dtype.cname}"] = points
    return series


def ablation_preshaping(
    targets: Sequence[str] = PAPER_TARGET_ORDER,
    *,
    array_bytes: int = 4 * MIB,
    ntimes: int = 3,
) -> dict[str, dict[str, float]]:
    """§IV observation: pre-shaping strided data to contiguous pays off.

    Returns per-target bandwidths for the strided walk, the contiguous
    walk, and the break-even number of strided passes one host-side
    transpose amortizes over (transpose cost modelled as one extra
    read+write of the array at the contiguous rate).
    """
    out: dict[str, dict[str, float]] = {}
    for target in targets:
        runner = _runner(target, ntimes)
        strided = runner.run(
            _optimal_params(
                target, array_bytes=array_bytes, pattern=AccessPattern.STRIDED
            )
        )
        contig = runner.run(_optimal_params(target, array_bytes=array_bytes))
        if not (strided.ok and contig.ok):
            continue
        t_strided = strided.min_time
        t_contig = contig.min_time
        # host-side transpose: read + write the array once at contiguous rate
        t_reshape = 2 * array_bytes / (contig.bandwidth_gbs * 1e9 / 2)
        gain_per_pass = t_strided - t_contig
        breakeven = t_reshape / gain_per_pass if gain_per_pass > 0 else float("inf")
        out[target] = {
            "strided_gbs": strided.bandwidth_gbs,
            "contiguous_gbs": contig.bandwidth_gbs,
            "speedup": t_strided / t_contig,
            "breakeven_passes": breakeven,
        }
    return out
