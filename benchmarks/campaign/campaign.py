"""One campaign of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every campaign
pays what a ``mp-stream sweep`` user pays on every run: the interpreter,
the imports, cold build caches and the process-wide front-end memo.
Before anything else the process times a fixed pure-Python loop
(``cal_s``), which ``run.py`` uses to scale this campaign's timings to a
reference machine speed. Set-up (imports, runners, grid) is then timed
from the next line of this file; the campaign is timed from the first
submit to the last result. The result goes to ``--result`` as JSON;
nothing is printed.

With ``--trace`` the layer wrappers of :mod:`layers` are installed
after set-up, and the per-layer metrics, the layer table and
``trace.json`` are produced from the recorded spans.
"""

import time


def _calibrate() -> float:
    """Seconds this process takes for a fixed loop: the machine's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(1_200_000):
        total += i * i % 7
    return time.perf_counter() - start


# both run at module level because set-up is timed from the first import
CAL_S = _calibrate()
T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repin", action="store_true")
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)

    import numpy
    import workloads

    job = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    setup_s = time.perf_counter() - T0

    recorder = None
    missing: list[str] = []
    if args.trace:
        import layers

        recorder = layers.Recorder(args.workdir)
        missing = layers.install(recorder)
        root = recorder.open(layers.ROOT_LAYER, "campaign", True)
    done: list[float] = []
    start = time.perf_counter()
    raw = job.run(done)
    end = time.perf_counter()
    if recorder is not None:
        recorder.close(root)

    outputs = job.outputs(raw)
    stamps = [start, *done]
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "expected": job.expected,
        "cal_s": CAL_S,
        "setup_s": setup_s,
        "campaign_s": end - start,
        "points": job.points(raw, done),
        "gaps_ms": [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])],
        "rss_mb": rss_kib / 1024,
        "numpy": numpy.__version__,
        "outputs": outputs,
        "digest": hashlib.sha256(
            json.dumps(outputs, sort_keys=True).encode()
        ).hexdigest()[:16],
    }
    if recorder is not None:
        by_pid = recorder.all_spans()
        analysis = layers.analyze(by_pid, recorder.main_pid, job.jobs)
        analysis["metrics"]["core.search.evals"] = job.evaluations(raw)
        analysis["metrics"]["core.history.bytes"] = sum(
            p.stat().st_size for p in args.workdir.glob("journal.jsonl*")
        )
        analysis["missing_targets"] = missing
        result["trace"] = analysis
        (args.workdir / "trace.json").write_text(
            json.dumps(layers.chrome_trace(by_pid, recorder.main_pid))
        )
    if args.repin:
        result["pins"] = job.pins(raw)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
