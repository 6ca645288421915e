"""Schema-versioned performance reports and regression comparison.

``BENCH_PERF.json`` is the harness's artifact: one file per run with
medians/IQR per microbenchmark plus environment provenance, written
byte-stable (sorted keys) so two runs diff cleanly. :func:`compare`
gates a current report against a previous one:

* **speedup ratios** (fast lane over scalar oracle on the same machine,
  same run) are machine-portable and are always gated — both against
  the baseline's ratio with a configurable threshold, and against the
  hard :data:`MIN_SPEEDUP` floors the acceptance criteria pin;
* **absolute throughput** is only compared when the two reports carry
  the same machine fingerprint, so a laptop baseline never fails CI.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import InvalidValueError

__all__ = [
    "BENCH_SCHEMA",
    "MIN_SPEEDUP",
    "MAX_PROBE_NS",
    "environment",
    "machine_fingerprint",
    "save_report",
    "load_report",
    "compare",
    "format_report",
]

#: bump when the report layout changes incompatibly
BENCH_SCHEMA = 1

#: hard speedup floors (fast lane vs scalar oracle); a report whose
#: ratio drops below these fails compare() regardless of the baseline
MIN_SPEEDUP: dict[str, float] = {
    # the array lane must beat its oracle, the work-item interpreter,
    # by 50x at a few thousand words, or a second execution driver is
    # not paying for its complexity
    "exec": 50.0,
    # multi-fidelity search: grid points per measured evaluation
    # (pool / spent, a deterministic count — no machine noise). The
    # acceptance criterion is the paper grid's optimum at <10% of the
    # grid, i.e. each measured evaluation must stand in for >= 10 grid
    # points; the benchmark itself also asserts optimum parity
    "search_efficiency": 10.0,
}

#: hard ceiling on the *disabled*-path cost of one obs probe
#: (``obs_overhead`` reports ``detail.ns_per_probe``). A disabled probe
#: is one module-global load and a return — microseconds per probe
#: means something expensive crept onto the path every engine stage
#: pays even without ``--trace``/``--metrics``. Generous (~10x the
#: measured CPython cost) so CI noise never trips it.
MAX_PROBE_NS = 5000.0


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, object]:
    """Provenance block: enough to judge report comparability."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": _git_sha(),
        "argv_quick": "--quick" in sys.argv,
    }


def machine_fingerprint(env: Mapping[str, object]) -> tuple:
    """What must match for absolute timings to be comparable."""
    return (env.get("platform"), env.get("machine"), env.get("cpu_count"))


def save_report(report: Mapping[str, object], path: str | Path) -> Path:
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path) -> dict[str, object]:
    report = json.loads(Path(path).read_text())
    schema = report.get("schema")
    if schema != BENCH_SCHEMA:
        raise InvalidValueError(
            f"report {path} has schema {schema!r}; expected {BENCH_SCHEMA}"
        )
    return report


def compare(
    current: Mapping[str, object],
    baseline: Mapping[str, object] | None,
    *,
    threshold: float = 0.25,
) -> list[str]:
    """Regressions of ``current`` vs ``baseline``; empty means pass.

    ``threshold`` is the tolerated fractional drop (0.25 = 25%).
    """
    if not 0 <= threshold < 1:
        raise InvalidValueError("threshold must be in [0, 1)")
    problems: list[str] = []
    cur_benches: Mapping[str, dict] = current.get("benchmarks", {})  # type: ignore[assignment]

    for name, floor in MIN_SPEEDUP.items():
        bench = cur_benches.get(name)
        if bench is None or "speedup" not in bench:
            continue
        if bench["speedup"] < floor:
            problems.append(
                f"{name}: speedup {bench['speedup']:.2f}x is below the "
                f"required {floor:g}x floor"
            )

    obs_bench = cur_benches.get("obs_overhead")
    if obs_bench is not None:
        probes: Mapping[str, float] = obs_bench.get("detail", {}).get(
            "ns_per_probe", {}
        )
        for probe, ns in sorted(probes.items()):
            if ns > MAX_PROBE_NS:
                problems.append(
                    f"obs_overhead: disabled {probe}() costs {ns:.0f} ns/probe, "
                    f"above the {MAX_PROBE_NS:g} ns ceiling — something "
                    f"expensive is on the no-sink path"
                )

    if baseline is None:
        return problems

    base_benches: Mapping[str, dict] = baseline.get("benchmarks", {})  # type: ignore[assignment]
    same_machine = machine_fingerprint(
        current.get("env", {})  # type: ignore[arg-type]
    ) == machine_fingerprint(baseline.get("env", {}))  # type: ignore[arg-type]

    for name, bench in sorted(cur_benches.items()):
        base = base_benches.get(name)
        if base is None:
            continue
        if "speedup" in bench and "speedup" in base:
            allowed = base["speedup"] * (1 - threshold)
            if bench["speedup"] < allowed:
                problems.append(
                    f"{name}: speedup regressed {base['speedup']:.2f}x -> "
                    f"{bench['speedup']:.2f}x (allowed >= {allowed:.2f}x)"
                )
        if same_machine and "throughput" in bench and "throughput" in base:
            cur_v = bench["throughput"]["value"]
            base_v = base["throughput"]["value"]
            allowed = base_v * (1 - threshold)
            if cur_v < allowed:
                unit = bench["throughput"].get("unit", "")
                problems.append(
                    f"{name}: throughput regressed {base_v:.3g} -> "
                    f"{cur_v:.3g} {unit} (allowed >= {allowed:.3g})"
                )
    return problems


def format_report(report: Mapping[str, object]) -> str:
    """Human-readable summary table of one report."""
    lines = []
    env = report.get("env", {})
    lines.append(
        f"bench schema {report.get('schema')} · python {env.get('python')} · "
        f"numpy {env.get('numpy')} · {env.get('git_sha')}"
    )
    benches: Mapping[str, dict] = report.get("benchmarks", {})  # type: ignore[assignment]
    width = max((len(n) for n in benches), default=4)
    for name, bench in sorted(benches.items()):
        wall = bench.get("wall_s", {})
        parts = [f"{name:<{width}}  {wall.get('median_s', 0) * 1e3:9.3f} ms"]
        iqr = wall.get("iqr_s")
        if iqr is not None:
            parts.append(f"±{iqr * 1e3:.3f}")
        if "speedup" in bench:
            parts.append(f"{bench['speedup']:6.1f}x vs scalar")
        if "throughput" in bench:
            tp = bench["throughput"]
            parts.append(f"{tp['value']:.3g} {tp['unit']}")
        lines.append("  ".join(parts))
    return "\n".join(lines)
