"""Measure the campaign benchmark's baseline and its run-to-run spread.

Runs the command in ``BENCHMARK.json`` the way a regression check does,
with the same arguments: ``RUNS`` times per workload, each time with
another seed, in ``SETS`` independent sets, plus one traced run per
workload. For each end-to-end metric it prints the spread (interquartile
range over the median) of every set and the drift of each later set's
median from the first, flagging any spread of a third of the metric's
bound or more and any drift beyond the bound (``setup_s`` is exempt
from the spread check). Writes everything, with the environment, to
``baseline.json`` beside this file.

    python3 benchmarks/campaign/baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: runs per set (one seed each) and independent sets, as a regression check makes
RUNS = 10
SETS = 2


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        *spec["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(last)
    result["layers"] = [
        line.split(" ", 2)[2]
        for line in proc.stdout.splitlines()
        if line.startswith(f"{workload} layer ")
    ]
    return result


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for s in range(SETS):
        values = {w: {m: [] for m in metrics} for w in workloads}
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in workloads:
                result = _run(spec, w, seed, 0)
                for m in metrics:
                    values[w][m].append(result["metrics"][m]["value"])
                print(f"set {s} seed {seed} {w} done", file=sys.stderr)
        sets.append({w: {m: _stats(v) for m, v in ms.items()} for w, ms in values.items()})
    traced = {w: _run(spec, w, 0, 1) for w in workloads}

    ok = True
    for w in workloads:
        for m, meta in metrics.items():
            bound = meta["bound"]
            cells = []
            for s, stats in enumerate(sets):
                spread = stats[w][m]["spread"]
                bad = m != "setup_s" and spread >= bound / 3
                cells.append(f"spread{s}={spread:6.2%}{'!' if bad else ' '}")
                ok &= not bad
                if s:
                    first = sets[0][w][m]["median"]
                    drift = (stats[w][m]["median"] - first) / first
                    worse = drift if meta["better"] == "lower" else -drift
                    cells.append(f"drift{s}={drift:+6.2%}{'!' if worse > bound else ' '}")
                    ok &= worse <= bound
            median = sets[0][w][m]["median"]
            print(f"{w:20s} {m:14s} {median:12.6g} {meta['unit']:9s} bound={bound:.0%} " + " ".join(cells))
    print("all spreads and drifts within bounds" if ok else "SOME SPREADS OR DRIFTS EXCEED BOUNDS")

    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True,
    ).stdout.strip()
    doc = {
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy,
            "platform": platform.platform(),
            "git_sha": sha,
        },
        "run_seconds": spec["run_seconds"],
        "runs_per_set": RUNS,
        "sets": sets,
        "traced": traced,
    }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
