"""Campaign benchmark: end-to-end DSE campaigns, timed and checked.

Runs each workload's campaign in a fresh interpreter (``campaign.py``),
repeating it for ``--seconds``, then reports the median timings, scaled
to a reference machine speed (see :func:`_end_to_end`), and the median
memory. Every output is checked against the
pins in ``expected/``. Prints every metric as ``workload metric value
unit``, writes ``<out>/report.json``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. Exits 1 if any output
is wrong or a campaign fails.

    python3 benchmarks/campaign/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--repin]

The workloads, the metrics and their units are those named in the
repo's ``BENCHMARK.json``, and ``--seconds`` defaults to its
``run_seconds``. Regression checks run the command in ``BENCHMARK.json``
with ``--workload W --seed N --seconds S --trace 0|1``, so ``--trace``
takes an optional 0 or 1.

``--trace`` alternates traced and untraced campaigns and reports the
per-layer metrics instead of the end-to-end ones; each traced campaign
leaves ``trace.json`` (Chrome trace format) in its directory under
``<out>``. ``--repin`` runs each workload once and rewrites its pinned
outputs in ``expected/`` (benchmark changes only).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
EXPECTED = HERE / "expected"

#: the reference speed: a machine on which ``campaign.py``'s calibration
#: loop takes this long. Reported timings are wall times scaled to it.
REF_CAL_S = 0.1

#: a campaign still running this long after its workload's run started
#: is killed, with its workers: a run of one workload must end within
#: 180 s, and ``--seconds`` alone cannot stop a campaign that hangs
RUN_LIMIT_S = 170.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and metrics this command reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class CampaignFailed(RuntimeError):
    pass


def _campaign(
    name: str, rep: int, traced: bool, args, workdir: Path, timeout: float
) -> dict:
    """Run one campaign in a fresh interpreter and return its result."""
    rep_dir = workdir / f"rep-{rep}"
    result_path = workdir / f"rep-{rep}.json"
    cmd = [
        sys.executable,
        str(HERE / "campaign.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--workdir", str(rep_dir),
        "--result", str(result_path),
    ]
    cmd += ["--trace"] * traced + ["--smoke"] * args.smoke + ["--repin"] * args.repin
    # the program under test is this checkout's source tree, and only it.
    # Set-up is timed as a user of the installed package pays it, with
    # bytecode already compiled: the bytecode cache is kept under --out
    # and written even where the environment turns bytecode writing off.
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(args.out / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # a session of its own, so that a timeout kills the campaign's workers too
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CampaignFailed(f"{name}: campaign {rep} killed after {timeout:.0f} s")
    if proc.returncode != 0:
        raise CampaignFailed(
            f"{name}: campaign {rep} exited {proc.returncode}\n{stderr[-4000:]}"
        )
    return json.loads(result_path.read_text())


def _check(outputs: dict, pins: dict, smoke: bool) -> tuple[int, int]:
    """``(attempted, wrong)`` for one campaign's outputs against its pins.

    Every produced output must equal its pin; outside the smoke subset,
    every ``exact`` pin must also be produced (a missing one is wrong).
    """
    exact = pins.get("exact", {})
    known = {**pins.get("allowed", {}), **exact}
    canon = json.dumps
    wrong = sum(
        key not in known or canon(value) != canon(known[key])
        for key, value in outputs.items()
    )
    attempted = len(outputs)
    if not smoke:
        missing = len(exact.keys() - outputs.keys())
        wrong += missing
        attempted += missing
    return attempted, wrong


def _scale(rep: dict) -> float:
    """Factor taking one campaign's wall times to the reference speed."""
    return REF_CAL_S / rep["cal_s"]


def _end_to_end(reps: list[dict]) -> dict[str, float]:
    """Medians over the run's campaigns, timings at the reference speed.

    The machine's speed drifts by 20% and more for seconds to minutes at
    a time, so each campaign's timings are scaled by its own calibration
    loop before the median is taken: over ten runs that cut the spread of
    ``campaign_s`` from 11-23% to 5-12% (see README.md).
    ``point_p50_ms`` is the median of every campaign's point gaps, pooled.
    """
    campaign_s = statistics.median(r["campaign_s"] * _scale(r) for r in reps)
    return {
        "campaign_s": campaign_s,
        "points_per_s": reps[0]["points"] / campaign_s,
        "point_p50_ms": statistics.median(
            g * _scale(r) for r in reps for g in r["gaps_ms"]
        ),
        "setup_s": statistics.median(r["setup_s"] * _scale(r) for r in reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def _per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    names = traced[0]["trace"]["metrics"]
    out = {
        name: statistics.median(r["trace"]["metrics"][name] for r in traced)
        for name in names
    }
    out["trace.overhead_frac"] = (
        _end_to_end(traced)["campaign_s"] / _end_to_end(plain)["campaign_s"] - 1.0
    )
    return out


def run_workload(name: str, args, units: dict[str, str]) -> dict:
    """Repeat ``name``'s campaign, check its outputs, compute ``units``' metrics.

    A run starts no campaign that its slowest campaign so far says would
    end after ``--seconds``. It has at least one campaign, or one traced
    and one untraced with ``--trace``; that minimum is all that
    ``--smoke`` and ``--repin`` run.
    """
    workdir = args.out / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reps: list[dict] = []
    slowest = 0.0
    t0 = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        started = time.monotonic()
        timeout = t0 + RUN_LIMIT_S - started
        reps.append(_campaign(name, len(reps), traced, args, workdir, timeout))
        slowest = max(slowest, time.monotonic() - started)
        if len(reps) < 1 + bool(args.trace):
            continue
        if args.smoke or args.repin or time.monotonic() - t0 + slowest > args.seconds:
            break

    if args.repin:
        pins_path = EXPECTED / f"{reps[0]['expected']}.json"
        pins_path.write_text(json.dumps(reps[0]["pins"], indent=1, sort_keys=True) + "\n")
        print(f"{name}: pinned {pins_path}", file=sys.stderr)
    pins = json.loads((EXPECTED / f"{reps[0]['expected']}.json").read_text())
    attempted = wrong = 0
    for rep in reps:
        a, w = _check(rep["outputs"], pins, args.smoke)
        attempted += a
        wrong += w

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    metrics = _per_layer(traced_reps, plain) if args.trace else _end_to_end(plain)
    return {
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
        "error_frac": wrong / attempted,
        "attempted": attempted,
        "failed": wrong,
        "campaigns": len(reps),
        "digests": sorted({r["digest"] for r in reps}),
        "campaign_s": [r["campaign_s"] for r in reps],
        "cal_s": [r["cal_s"] for r in reps],
        "traced": [r["traced"] for r in reps],
        "layers": traced_reps[-1]["trace"]["table"] if traced_reps else [],
        "missing_targets": traced_reps[-1]["trace"]["missing_targets"] if traced_reps else [],
        "numpy": reps[0]["numpy"],
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append", choices=workloads,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="how long to keep repeating campaigns, per workload",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from traced campaigns",
    )
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repin", action="store_true")
    args = parser.parse_args(argv)
    names = args.workload or workloads
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    report: dict[str, object] = {
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workloads": {},
    }
    try:
        for name in names:
            report["workloads"][name] = run_workload(name, args, units)
    except CampaignFailed as exc:
        print(f"campaign benchmark failed: {exc}", file=sys.stderr)
        return 1

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, res in report["workloads"].items():
        report["env"]["numpy"] = res["numpy"]
        for metric, entry in res["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            summary["metrics"][key] = entry
        print(f"{name} error_frac {res['error_frac']:.6g} fraction")
        for row in res["layers"]:
            print(
                f"{name} layer {row['layer']} calls={row['calls']} "
                f"self_s={row['self_s']:.4f} share={row['share']:.1%}"
            )
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
    summary["correct"] = summary["failed"] == 0
    (args.out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
