"""Console reporting: STREAM-style tables and ASCII charts.

STREAM prints a fixed-format table (function, best rate, avg/min/max
time); MP-STREAM sweeps additionally want per-axis series. Everything
here renders to plain text so results read the same in a terminal, a
log file, or EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ..units import format_bandwidth, format_size, format_time
from .results import ResultSet, RunResult

__all__ = [
    "stream_table",
    "results_table",
    "failure_table",
    "series_table",
    "metrics_table",
    "verify_table",
    "ascii_chart",
    "markdown_table",
]


def stream_table(results: Sequence[RunResult]) -> str:
    """The classic STREAM output block for one run of the four kernels."""
    lines = [
        f"{'Function':<10}{'Best Rate':>14}{'Avg time':>12}{'Min time':>12}{'Max time':>12}",
        "-" * 60,
    ]
    for r in results:
        if not r.ok:
            lines.append(f"{str(r.params.kernel):<10}{'FAILED':>14}    {r.error}")
            continue
        lines.append(
            f"{str(r.params.kernel):<10}"
            f"{format_bandwidth(r.bandwidth_gbs * 1e9):>14}"
            f"{format_time(r.avg_time):>12}"
            f"{format_time(r.min_time):>12}"
            f"{format_time(r.max_time):>12}"
        )
    return "\n".join(lines)


def results_table(results: ResultSet, columns: Sequence[str] | None = None) -> str:
    """Aligned table of flat result rows."""
    if len(results) == 0:
        return "(no results)"
    if columns is None:
        columns = [
            "target",
            "kernel",
            "array_bytes",
            "vector_width",
            "pattern",
            "loop",
            "bandwidth_gbs",
            "validated",
        ]
    rows = [[_fmt_cell(r.row().get(c)) for c in columns] for r in results]
    widths = [
        max(len(str(c)), *(len(row[i]) for row in rows)) for i, c in enumerate(columns)
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows)
    return "\n".join([header, sep, body])


def failure_table(results: ResultSet, *, examples: int = 1) -> str:
    """Failure-taxonomy summary: per-kind counts plus example errors.

    An FPGA configuration that fails to build is a data point, not a
    crash — this is the campaign's view of those data points. Returns
    ``"(no failures)"`` when every point succeeded.
    """
    kinds = results.failure_kinds()
    if not kinds:
        return "(no failures)"
    failed = list(results.failed())
    lines = [f"{'failure kind':<14}{'points':>7}  example"]
    lines.append("-" * 60)
    for kind, count in kinds.items():
        sample = [
            r.error
            for r in failed
            if (r.failure_kind or "unclassified") == kind
        ][:examples]
        first = sample[0].splitlines()[0] if sample else ""
        if len(first) > 60:
            first = first[:57] + "..."
        lines.append(f"{kind:<14}{count:>7}  {first}")
    return "\n".join(lines)


def verify_table(
    sections: Mapping[str, Sequence[tuple[str, bool, str]]]
) -> str:
    """Checklist rendering of a ``mp-stream verify`` suite run.

    ``sections`` maps a pillar name (``conformance``, ``metamorphic``,
    ``engine``, ``golden``) to ``(label, ok, detail)`` rows. Kept as
    plain tuples so the report layer needs no import of
    :mod:`repro.verify` (which imports the engine, which reports here).
    """
    if not sections:
        return "(nothing verified)"
    lines: list[str] = []
    for section, rows in sections.items():
        ok = all(row_ok for _, row_ok, _ in rows)
        lines.append(f"{section}  [{'ok' if ok else 'FAIL'}]")
        for label, row_ok, detail in rows:
            mark = "ok" if row_ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            lines.append(f"  [{mark:>4}] {label}{suffix}")
    return "\n".join(lines)


def metrics_table(snapshot: Mapping[str, object]) -> str:
    """Aligned name/value table of a metrics-registry snapshot.

    Accepts the mapping produced by
    :meth:`repro.obs.MetricsRegistry.snapshot` (or loaded back from a
    ``--metrics`` JSON file): counters render as one value,
    histograms as their count/mean/min/max summary. Names sort within
    each kind, so related metrics (``engine.*``, ``memsim.dram.*``)
    read as blocks.
    """
    rows: list[tuple[str, str]] = []

    def _value(v: object) -> str:
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    counters = snapshot.get("counters")
    if isinstance(counters, Mapping):
        for name in sorted(counters):
            rows.append((name, _value(counters[name])))
    histograms = snapshot.get("histograms")
    if isinstance(histograms, Mapping):
        for name in sorted(histograms):
            h = histograms[name]
            if isinstance(h, Mapping):
                rows.append(
                    (
                        name,
                        f"n={h.get('count', 0)} mean={_value(h.get('mean', 0.0))} "
                        f"min={_value(h.get('min', 0.0))} "
                        f"max={_value(h.get('max', 0.0))}",
                    )
                )
    if not rows:
        return "(no metrics)"
    width = max(len(name) for name, _ in rows)
    lines = [f"{'metric':<{width}}  value", "-" * (width + 2 + 5)]
    lines.extend(f"{name:<{width}}  {value}" for name, value in rows)
    return "\n".join(lines)


def _fmt_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, int) and value >= 1024:
        return format_size(value)
    return str(value)


def series_table(
    series: Mapping[str, Sequence[tuple[object, float]]],
    *,
    x_label: str = "x",
    y_label: str = "GB/s",
) -> str:
    """One row per x value, one column per named series (figure data)."""
    xs: list[object] = []
    for points in series.values():
        for x, _ in points:
            if x not in xs:
                xs.append(x)
    names = list(series)
    widths = [max(len(x_label), *(len(_fmt_cell(x)) for x in xs))] + [
        max(len(n), 8) for n in names
    ]
    header = "  ".join(
        s.ljust(w) for s, w in zip([x_label] + names, widths)
    )
    lines = [f"({y_label})", header, "  ".join("-" * w for w in widths)]
    lookup = {
        name: {x: y for x, y in points} for name, points in series.items()
    }
    for x in xs:
        row = [_fmt_cell(x).ljust(widths[0])]
        for i, name in enumerate(names):
            y = lookup[name].get(x)
            row.append(("-" if y is None else f"{y:.3f}").ljust(widths[i + 1]))
        lines.append("  ".join(row))
    return "\n".join(lines)


def ascii_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    width: int = 64,
    height: int = 18,
    log_x: bool = True,
    log_y: bool = True,
    title: str = "",
) -> str:
    """A log-log scatter chart in plain text (one marker per series)."""
    markers = "ox+*#@%&"
    points: list[tuple[float, float, str]] = []
    for i, (name, pts) in enumerate(series.items()):
        m = markers[i % len(markers)]
        for x, y in pts:
            if x > 0 and y > 0:
                points.append((float(x), float(y), m))
    if not points:
        return "(no data)"

    def tx(v: float) -> float:
        return math.log10(v) if log_x else v

    def ty(v: float) -> float:
        return math.log10(v) if log_y else v

    xs = [tx(p[0]) for p in points]
    ys = [ty(p[1]) for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for x, y, m in points:
        col = int((tx(x) - x0) / xr * (width - 1))
        row = height - 1 - int((ty(y) - y0) / yr * (height - 1))
        grid[row][col] = m
    lines = []
    if title:
        lines.append(title)
    top = f"{10 ** y1 if log_y else y1:,.3g}"
    bottom = f"{10 ** y0 if log_y else y0:,.3g}"
    pad = max(len(top), len(bottom))
    for i, row in enumerate(grid):
        label = top if i == 0 else (bottom if i == height - 1 else "")
        lines.append(f"{label:>{pad}} |" + "".join(row))
    lines.append(" " * pad + " +" + "-" * width)
    left = f"{10 ** x0 if log_x else x0:,.3g}"
    right = f"{10 ** x1 if log_x else x1:,.3g}"
    lines.append(
        " " * pad + "  " + left + " " * max(1, width - len(left) - len(right)) + right
    )
    legend = "   ".join(
        f"{markers[i % len(markers)]} {name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def markdown_table(
    series: Mapping[str, Sequence[tuple[object, float]]],
    *,
    x_label: str = "x",
) -> str:
    """Same data as :func:`series_table`, as a Markdown table."""
    xs: list[object] = []
    for points in series.values():
        for x, _ in points:
            if x not in xs:
                xs.append(x)
    names = list(series)
    lookup = {name: {x: y for x, y in pts} for name, pts in series.items()}
    lines = [
        "| " + " | ".join([x_label] + names) + " |",
        "|" + "|".join(["---"] * (len(names) + 1)) + "|",
    ]
    for x in xs:
        cells = [_fmt_cell(x)]
        for name in names:
            y = lookup[name].get(x)
            cells.append("-" if y is None else f"{y:.3f}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
