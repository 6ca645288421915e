"""numpy STREAM on the actual host machine.

Follows stream.c: arrays far larger than the last-level cache, ten
timed iterations, report min/avg/max time and best-rate bandwidth with
STREAM's byte counting (2 arrays for COPY/SCALE, 3 for ADD/TRIAD).

numpy's elementwise kernels are memory-bound at these sizes, so the
numbers approximate the machine's sustainable bandwidth from a single
core (numpy does not parallelize these ufuncs) — a real-world analogue
of the paper's single-work-item CPU observations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.kernels import SCALAR_Q
from ..core.params import KernelName
from ..errors import BenchmarkError, ValidationError
from ..units import MIB, bandwidth_gbs, format_bandwidth, format_size

__all__ = [
    "HostStreamResult",
    "run_host_stream",
    "checktick",
    "classic_report",
    "expected_scalars",
]


def expected_scalars(q: float = float(SCALAR_Q)) -> tuple[float, float, float]:
    """Final (a, b, c) scalar values after one COPY→SCALE→ADD→TRIAD pass.

    STREAM's arrays start constant (a=1, b=2, c=0) and each kernel maps
    constants to constants, so the whole sequence reduces to scalar
    recurrences — stream.c validates exactly this way.
    """
    ea, eb, ec = 1.0, 2.0, 0.0
    ec = ea  # copy
    eb = q * ec  # scale
    ec = ea + eb  # add
    ea = eb + q * ec  # triad
    return ea, eb, ec


def checktick(samples: int = 20) -> float:
    """Measure the usable timer granularity, like stream.c's checktick().

    Returns the minimum observed positive delta of ``perf_counter`` in
    seconds. stream.c refuses measurements shorter than 20 ticks; the
    report flags kernels whose best time is below that threshold.
    """
    deltas = []
    for _ in range(samples):
        t1 = time.perf_counter()
        t2 = time.perf_counter()
        while t2 <= t1:
            t2 = time.perf_counter()
        deltas.append(t2 - t1)
    return min(deltas)


@dataclass(frozen=True)
class HostStreamResult:
    """One kernel's measurement on the real host."""

    kernel: KernelName
    array_bytes: int
    times: tuple[float, ...]
    moved_bytes: int

    @property
    def min_time(self) -> float:
        return min(self.times)

    @property
    def avg_time(self) -> float:
        return sum(self.times) / len(self.times)

    @property
    def max_time(self) -> float:
        return max(self.times)

    @property
    def bandwidth_gbs(self) -> float:
        return bandwidth_gbs(self.moved_bytes, self.min_time)


def run_host_stream(
    *,
    array_bytes: int = 64 * MIB,
    ntimes: int = 10,
    dtype: str = "float64",
) -> dict[KernelName, HostStreamResult]:
    """Run the four STREAM kernels on this machine with numpy.

    Returns per-kernel results; raises only for nonsensical arguments.
    """
    if ntimes < 1:
        raise BenchmarkError(f"ntimes must be >= 1, got {ntimes}")
    dt = np.dtype(dtype)
    n = array_bytes // dt.itemsize
    if n < 1:
        raise BenchmarkError("array size smaller than one element")
    a = np.full(n, 1, dtype=dt)
    b = np.full(n, 2, dtype=dt)
    c = np.zeros(n, dtype=dt)
    q = dt.type(3)

    kernels = {
        KernelName.COPY: lambda: np.copyto(c, a),
        KernelName.SCALE: lambda: np.multiply(c, q, out=b),
        KernelName.ADD: lambda: np.add(a, b, out=c),
        KernelName.TRIAD: lambda: np.add(b, q * c, out=a),
    }
    results: dict[KernelName, HostStreamResult] = {}
    for kernel, fn in kernels.items():
        fn()  # warm-up / first-touch
        times = []
        for _ in range(ntimes):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        moved = array_bytes * kernel.arrays_touched
        results[kernel] = HostStreamResult(
            kernel=kernel,
            array_bytes=array_bytes,
            times=tuple(times),
            moved_bytes=moved,
        )

    # stream.c-style solution check: the arrays hold the values the
    # kernel sequence implies (each kernel ran warm-up + ntimes with
    # constant-valued arrays, so scalars suffice)
    ea, eb, ec = expected_scalars(float(q))
    for name, arr, want in (("a", a, ea), ("b", b, eb), ("c", c, ec)):
        if dt.kind == "f":
            err = float(np.max(np.abs(arr - want)))
            if err > 1e-8 * max(abs(want), 1.0):
                raise ValidationError(
                    f"host STREAM array {name!r} failed validation "
                    f"(max err {err:.3e})"
                )
    return results


def classic_report(
    results: dict[KernelName, HostStreamResult], *, tick: float | None = None
) -> str:
    """A stream.c-style report block for host results."""
    if not results:
        raise BenchmarkError("no results to report")
    if tick is None:
        tick = checktick()
    first = next(iter(results.values()))
    lines = [
        "-" * 62,
        "STREAM (numpy host baseline)",
        "-" * 62,
        f"Array size = {first.array_bytes // 8} (elements), "
        f"{format_size(first.array_bytes)} per array",
        f"Each kernel was executed {len(first.times)} times; the *best* "
        "time is reported.",
        f"Timer granularity ~ {tick * 1e9:.0f} ns.",
        "-" * 62,
        f"{'Function':<10}{'Best Rate':>14}{'Avg time':>12}{'Min time':>12}"
        f"{'Max time':>12}",
    ]
    for kernel, r in results.items():
        note = " (*)" if r.min_time < 20 * tick else ""
        lines.append(
            f"{kernel.value:<10}{format_bandwidth(r.bandwidth_gbs * 1e9):>14}"
            f"{r.avg_time * 1e3:>10.3f}ms{r.min_time * 1e3:>10.3f}ms"
            f"{r.max_time * 1e3:>10.3f}ms{note}"
        )
    if any(r.min_time < 20 * tick for r in results.values()):
        lines.append("(*) best time below 20 timer ticks: increase the array size")
    lines.append("-" * 62)
    return "\n".join(lines)
