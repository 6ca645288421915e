"""Microbenchmarks: time the hot paths, pin the speedups.

``exec`` times the fast lane against its retained *scalar oracle* on
identical inputs — the pair `tests/test_vectorize_equivalence.py`
proves bit-for-bit identical — and reports median/IQR wall times plus
the speedup ratio. The ratio is the machine-portable number CI gates
on; absolute throughput is only compared between identical machines
(see :mod:`repro.perf.report`).

Benchmarks:

* ``exec`` — the two kernel-execution drivers on a generated triad
  kernel: the work-item :class:`~repro.oclc.interp.KernelInterpreter`
  vs the whole-NDRange :class:`~repro.oclc.vectorize.VectorKernel`.
  The gated ratio is taken at a few thousand words, where the
  interpreter still finishes in milliseconds; the throughput is the
  array lane's at 1M words.
* ``engine_stages`` — one engine point end to end, with the per-stage
  split (generate/compile/plan/execute) from ``detail['engine']``.
* ``sweep_throughput`` — a small cartesian sweep, reported as
  points/second.
* ``search_efficiency`` — multi-fidelity search vs the exhaustive sweep
  on the same grid; the gated ratio is grid points per measured
  evaluation, and the search must find the sweep's optimum.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Mapping

import numpy as np

from ..core import BenchmarkRunner, ParameterSweep, TuningParameters, explore
from ..core.generator import generate
from ..core.kernels import KERNELS, SCALAR_Q, initial_arrays
from ..core.params import DataType, KernelName
from ..errors import InvalidValueError
from ..obs import trace as obs_trace
from ..oclc import compile_source_cached, vectorize_kernel
from ..oclc.interp import BufferArg, KernelInterpreter
from .report import BENCH_SCHEMA, environment

__all__ = ["BENCHMARKS", "run_benchmarks"]


def _sample(fn: Callable[[], object], repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def _stats(samples: Iterable[float]) -> dict[str, object]:
    arr = np.sort(np.asarray(list(samples), dtype=np.float64))
    q1, q3 = np.percentile(arr, [25, 75])
    return {
        "median_s": float(np.median(arr)),
        "min_s": float(arr[0]),
        "iqr_s": float(q3 - q1),
        "repeats": int(arr.size),
    }


def _paired(
    scalar: Callable[[], object],
    fast: Callable[[], object],
    *,
    scalar_repeats: int,
    fast_repeats: int,
) -> dict[str, object]:
    """Time a fast lane against its scalar oracle.

    Both lanes are warmed once, then sampled *interleaved* so a load
    spike hits them alike. The gated speedup ratio uses each lane's
    best run (the least-noise estimate of achievable cost, as
    ``timeit`` recommends); the medians/IQR land in the report for
    absolute-throughput tracking.
    """
    scalar()
    fast()
    scalar_samples: list[float] = []
    fast_samples: list[float] = []
    rounds = max(scalar_repeats, fast_repeats)
    for i in range(rounds):
        if i < scalar_repeats:
            scalar_samples.extend(_sample(scalar, 1))
        if i < fast_repeats:
            fast_samples.extend(_sample(fast, 1))
    scalar_stats = _stats(scalar_samples)
    fast_stats = _stats(fast_samples)
    return {
        "wall_s": fast_stats,
        "scalar_s": scalar_stats,
        "speedup": scalar_stats["min_s"] / fast_stats["min_s"],
    }


# -- kernel execution ----------------------------------------------------------


#: array size of the ``exec`` throughput leg: large enough that the
#: array lane's per-launch Python overhead is amortized
_EXEC_THROUGHPUT_WORDS = 1_048_576


def _triad_launch(words: int, build) -> Callable[[], None]:
    """One launch of the generated float4 triad kernel over ``words``.

    The kernel is built once and its arguments reused, so every launch
    after the first reuses the array lane's cached launch plan. A
    campaign point launches its kernel once and builds its plan, so
    this times the warm relaunch only.
    """
    params = TuningParameters(
        kernel=KernelName.TRIAD,
        dtype=DataType.FLOAT,
        array_bytes=words * 4,
        vector_width=4,
    )
    gen = generate(params)
    checked = compile_source_cached(
        gen.source, {k: str(v) for k, v in gen.defines.items()}
    )
    initial = initial_arrays(params.word_count, params.dtype)
    spec = KERNELS[params.kernel]
    call: dict[str, object] = {
        name: BufferArg(initial[name].copy()) for name in (*spec.reads, spec.writes)
    }
    if spec.uses_scalar:
        call["q"] = SCALAR_Q
    kernel = build(checked, gen.kernel_name)
    return lambda: kernel.run(gen.global_size, call, gen.local_size)


def bench_exec(quick: bool) -> dict[str, object]:
    """The array lane against its oracle, the work-item interpreter."""
    words = 2048 if quick else 4096
    entry = _paired(
        _triad_launch(words, KernelInterpreter),
        _triad_launch(words, vectorize_kernel),
        scalar_repeats=2 if quick else 3,
        fast_repeats=20 if quick else 50,
    )
    big = _triad_launch(_EXEC_THROUGHPUT_WORDS, vectorize_kernel)
    big()  # warm: build the launch plan
    big_s = _stats(_sample(big, 10 if quick else 20))
    entry["throughput"] = {
        "value": _EXEC_THROUGHPUT_WORDS / big_s["median_s"],  # type: ignore[operator]
        "unit": "words/s",
    }
    entry["detail"] = {
        "kernel": "triad",
        "vector_width": 4,
        "words": words,
        "throughput_words": _EXEC_THROUGHPUT_WORDS,
        "throughput_s": big_s,
    }
    return entry


# -- engine / end-to-end -------------------------------------------------------


def bench_engine_stages(quick: bool) -> dict[str, object]:
    params = TuningParameters(
        kernel=KernelName.TRIAD,
        dtype=DataType.FLOAT,
        array_bytes=(64 if quick else 256) * 1024,
        vector_width=4,
    )

    stage_samples: dict[str, list[float]] = {}
    walls: list[float] = []

    def one_point() -> None:
        runner = BenchmarkRunner("cpu", ntimes=2)
        t0 = time.perf_counter()
        result = runner.run(params)
        walls.append(time.perf_counter() - t0)
        for stage, seconds in result.detail["engine"]["stage_s"].items():
            stage_samples.setdefault(stage, []).append(seconds)

    repeats = 3 if quick else 5
    for _ in range(repeats):
        one_point()

    return {
        "wall_s": _stats(walls),
        "detail": {
            "stage_s": {
                stage: _stats(samples) for stage, samples in sorted(stage_samples.items())
            }
        },
    }


def bench_sweep_throughput(quick: bool) -> dict[str, object]:
    base = TuningParameters(
        kernel=KernelName.TRIAD,
        dtype=DataType.FLOAT,
        array_bytes=64 * 1024,
        vector_width=1,
    )
    axes: dict[str, list[object]] = {"vector_width": [1, 2, 4]}
    if not quick:
        axes["kernel"] = [KernelName.COPY, KernelName.TRIAD]
    sweep = ParameterSweep(base=base, axes=axes)

    walls: list[float] = []

    def one_sweep() -> None:
        runner = BenchmarkRunner("cpu", ntimes=2)
        t0 = time.perf_counter()
        results = explore(runner, sweep)
        walls.append(time.perf_counter() - t0)
        if any(not r.ok for r in results):
            raise InvalidValueError("sweep benchmark produced failing points")

    repeats = 2 if quick else 3
    for _ in range(repeats):
        one_sweep()

    entry: dict[str, object] = {"wall_s": _stats(walls)}
    entry["throughput"] = {
        "value": len(sweep) / entry["wall_s"]["median_s"],  # type: ignore[index]
        "unit": "points/s",
    }
    entry["detail"] = {"points": len(sweep)}
    return entry


# -- model-guided search -------------------------------------------------------


def bench_search_efficiency(quick: bool) -> dict[str, object]:
    """Multi-fidelity search vs the exhaustive sweep it replaces.

    Runs :func:`~repro.core.search.multifidelity_search` and
    :func:`~repro.core.sweep.explore` over the same grid on a shared
    runner (both ride the same caches) and reports both wall times —
    but the *gated* ``speedup`` is the deterministic evaluation ratio
    ``pool / spent``: how many grid points each measured evaluation
    stood in for. That number cannot be moved by machine noise, only by
    a searcher change that starts spending more budget. The search must
    also find the exhaustive optimum (same fingerprint or equal
    bandwidth), else the benchmark raises — a faster search that finds
    a worse point is a regression, not a win.
    """
    from ..core import LoopManagement, multifidelity_search

    base = TuningParameters(
        kernel=KernelName.TRIAD,
        dtype=DataType.FLOAT,
        array_bytes=64 * 1024,
    )
    axes: dict[str, list[object]] = {
        "kernel": [KernelName.COPY, KernelName.TRIAD],
        "loop": list(LoopManagement),
        "vector_width": [1, 2, 4, 8, 16],
        "unroll": [1, 2, 4],
    }
    budget = 6
    sweep = ParameterSweep(base=base, axes=axes)

    search_walls: list[float] = []
    sweep_walls: list[float] = []
    spent = pool = 0

    repeats = 2 if quick else 3
    for _ in range(repeats):
        runner = BenchmarkRunner("cpu", ntimes=1)
        t0 = time.perf_counter()
        out = multifidelity_search(runner, axes, seed=base, budget=budget)
        search_walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        grid = explore(runner, sweep)
        sweep_walls.append(time.perf_counter() - t0)
        spent, pool = out.spent, out.pool_size
        grid_best = grid.best()
        if grid_best is None or not out.best.ok:
            raise InvalidValueError("search benchmark produced failing points")
        same = out.best.fingerprint() == grid_best.fingerprint()
        if not same and out.best.bandwidth_gbs < grid_best.bandwidth_gbs * (
            1 - 1e-6
        ):
            raise InvalidValueError(
                "search missed the exhaustive optimum: "
                f"{out.best.params.describe()} "
                f"({out.best.bandwidth_gbs:.6f} GB/s) vs "
                f"{grid_best.params.describe()} "
                f"({grid_best.bandwidth_gbs:.6f} GB/s)"
            )

    entry: dict[str, object] = {
        "wall_s": _stats(search_walls),
        "scalar_s": _stats(sweep_walls),
        # grid points per measured evaluation — deterministic, gated
        "speedup": pool / max(1, spent),
    }
    entry["throughput"] = {
        "value": spent / entry["wall_s"]["median_s"],  # type: ignore[index]
        "unit": "evals/s",
    }
    entry["detail"] = {
        "pool": pool,
        "grid": len(sweep),
        "budget": budget,
        "spent": spent,
    }
    return entry


# -- observability overhead ----------------------------------------------------


def bench_obs_overhead(quick: bool) -> dict[str, object]:
    """The disabled-path cost of the obs probes, in ns per probe.

    The whole obs contract rests on probes being ~free when no sink is
    installed (one module-global load, then return) — every engine
    stage, cache lookup and memory-model query pays this even on campaigns
    that never pass ``--trace``/``--metrics``. This pins that cost so
    a refactor cannot silently put, say, string formatting or object
    construction on the disabled path; :data:`repro.perf.report.MAX_PROBE_NS`
    is the gated ceiling.
    """
    from ..obs import metrics as obs_metrics
    from ..obs import trace as obs_trace

    n = 50_000 if quick else 200_000
    repeats = 3 if quick else 5

    def loop_count() -> None:
        count = obs_metrics.count
        for _ in range(n):
            count("bench.probe")

    def loop_observe() -> None:
        observe = obs_metrics.observe
        for _ in range(n):
            observe("bench.probe", 1.0)

    def loop_span() -> None:
        span = obs_trace.span
        for _ in range(n):
            with span("bench.probe", "bench"):
                pass

    probes = {"count": loop_count, "observe": loop_observe, "span": loop_span}
    with obs_metrics.use_registry(None), obs_trace.use_tracer(None):
        for fn in probes.values():  # warm
            fn()
        samples = {
            name: _sample(fn, repeats) for name, fn in probes.items()
        }

    ns_per_probe = {
        name: min(walls) / n * 1e9 for name, walls in samples.items()
    }
    totals = [sum(walls[i] for walls in samples.values()) for i in range(repeats)]
    return {
        "wall_s": _stats(totals),
        "detail": {
            "probes": n,
            "ns_per_probe": {k: round(v, 2) for k, v in sorted(ns_per_probe.items())},
        },
    }


BENCHMARKS: dict[str, Callable[[bool], dict[str, object]]] = {
    "exec": bench_exec,
    "engine_stages": bench_engine_stages,
    "sweep_throughput": bench_sweep_throughput,
    "search_efficiency": bench_search_efficiency,
    "obs_overhead": bench_obs_overhead,
}


def run_benchmarks(
    *, quick: bool = False, only: Iterable[str] | None = None
) -> dict[str, object]:
    """Run the selected benchmarks; returns a schema-versioned report."""
    names = list(only) if only else list(BENCHMARKS)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise InvalidValueError(
            f"unknown benchmark(s) {unknown}; have {sorted(BENCHMARKS)}"
        )
    benchmarks: dict[str, Mapping[str, object]] = {}
    for name in names:
        with obs_trace.span(f"bench.{name}", "perf"):
            benchmarks[name] = BENCHMARKS[name](quick)
    return {
        "schema": BENCH_SCHEMA,
        "quick": bool(quick),
        "env": environment(),
        "benchmarks": benchmarks,
    }
