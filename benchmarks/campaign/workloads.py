"""The campaign benchmark's four workloads.

Each workload is a batch job: one campaign in flight, closed loop. The
seed permutes only the *order* of the work (the values inside every
sweep axis, the knob values inside the figures, the search targets),
never which points run, so the pinned outputs in ``expected/`` hold for
every seed.

Sizes are scaled down from the paper's (1 KiB-4 MiB figure arrays, a
512 KiB sweep grid) so that one run of the benchmark can repeat each
campaign several times, each in a fresh interpreter, within its time
budget. ``smoke=True`` selects a reduced subset of the same work for the
self-test; its points are a subset of the full workload's, so the same
pinned outputs apply.
"""

from __future__ import annotations

import hashlib
import random
import time
from pathlib import Path
from typing import Callable

from repro import figures
from repro.core import (
    AccessPattern,
    BenchmarkRunner,
    DataType,
    ExecutionEngine,
    KernelName,
    LoopManagement,
    SweepJournal,
    TuningParameters,
    point_fingerprint,
)
from repro.core.search import multifidelity_search
from repro.core.sweep import ParameterSweep, explore
from repro.units import KIB, MIB

AOCL_AXES = {
    "kernel": list(KernelName),
    "loop": list(LoopManagement),
    "vector_width": [1, 2, 4, 8, 16],
    "unroll": [1, 2, 4, 8],
    "dtype": list(DataType),
}
SMOKE_AOCL_AXES = {
    "kernel": [KernelName.COPY, KernelName.TRIAD],
    "loop": list(LoopManagement),
    "vector_width": [1, 16],
    "unroll": [1, 8],
    "dtype": [DataType.INT],
}
SWEEP_ARRAY_BYTES = 512 * KIB

FIG_SIZES = tuple(KIB * 4**i for i in range(7))  # 1 KiB ... 4 MiB
FIG_ARRAY_BYTES = 1 * MIB
FIG_KNOBS = (1, 2, 4, 8, 16)
#: the figure calls, in the paper's order. The order of the calls and of
#: the array sizes stays fixed: both move the campaign's peak RSS by up
#: to 20% (the allocator keeps what earlier points freed), which would
#: make peak_rss_mb depend on the seed.
FIGURE_CALLS: dict[str, tuple[Callable, dict]] = {
    "fig1a": (figures.fig1a_array_size, {"sizes": FIG_SIZES}),
    "fig1b": (
        figures.fig1b_vector_width,
        {"widths": FIG_KNOBS, "array_bytes": FIG_ARRAY_BYTES},
    ),
    "fig2": (figures.fig2_contiguity, {"sizes": FIG_SIZES}),
    "fig3": (figures.fig3_loop_management, {"array_bytes": FIG_ARRAY_BYTES}),
    "fig4a": (figures.fig4a_all_kernels, {"array_bytes": FIG_ARRAY_BYTES}),
    "fig4b": (
        figures.fig4b_aocl_optimizations,
        {"scales": FIG_KNOBS, "array_bytes": FIG_ARRAY_BYTES},
    ),
    "pcie_streams": (figures.pcie_streams, {"sizes": FIG_SIZES}),
    "ablation_unroll": (
        figures.ablation_unroll,
        {"factors": FIG_KNOBS, "array_bytes": FIG_ARRAY_BYTES},
    ),
    "ablation_dtype": (figures.ablation_dtype, {"array_bytes": FIG_ARRAY_BYTES}),
    "ablation_preshaping": (
        figures.ablation_preshaping,
        {"array_bytes": FIG_ARRAY_BYTES},
    ),
}
#: figure arguments whose value order the seed permutes
FIG_PERMUTED = ("widths", "scales", "factors")
SMOKE_FIGURES = ("fig3", "fig4b", "pcie_streams")

SEARCH_AXES = {
    "kernel": list(KernelName),
    "loop": list(LoopManagement),
    "vector_width": [1, 2, 4, 8, 16],
    "unroll": [1, 2, 4, 8],
    "dtype": list(DataType),
    "pattern": list(AccessPattern),
}
SEARCH_TARGETS = ("aocl", "sdaccel", "cpu", "gpu")
SMOKE_SEARCH_TARGETS = ("gpu",)
SEARCH_BASE = TuningParameters(array_bytes=64 * KIB)
SEARCH_BUDGET = 24


def result_hash(result) -> str:
    """Short hash of a :class:`RunResult`'s measurement fingerprint."""
    return hashlib.sha256(result.fingerprint().encode()).hexdigest()[:16]


def _count_engine_points(done: list[float]) -> None:
    """Record a timestamp each time an engine point completes."""
    run = ExecutionEngine.run

    def timed_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        done.append(time.perf_counter())
        return result

    ExecutionEngine.run = timed_run


class Workload:
    """One campaign: built in :meth:`__init__` (set-up), timed in :meth:`run`.

    ``run(done)`` appends a ``time.perf_counter()`` stamp to ``done`` as
    each point completes and returns the campaign's raw result;
    ``outputs(raw)`` turns it into the ``{key: value}`` map that is
    checked against ``expected/<expected>.json``.
    """

    expected: str = ""
    #: worker processes the campaign runs its points on (1 = in-process)
    jobs = 1

    def run(self, done: list[float]):
        raise NotImplementedError

    def outputs(self, raw) -> dict[str, object]:
        raise NotImplementedError

    def evaluations(self, raw) -> int:
        """Measured evaluations a search spent (0 for other campaigns)."""
        return 0

    def points(self, raw, done: list[float]) -> int:
        """Design points the campaign resolved: one per completion stamp."""
        return len(done)

    def pins(self, raw) -> dict[str, dict]:
        """The expected-output file for this workload (``--repin``)."""
        return {"exact": self.outputs(raw)}


class PaperFigures(Workload):
    expected = "paper_figures"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = random.Random(seed)
        self.calls = []
        for name, (fn, kwargs) in FIGURE_CALLS.items():
            if smoke and name not in SMOKE_FIGURES:
                continue
            kwargs = {
                k: rng.sample(v, len(v)) if k in FIG_PERMUTED else v
                for k, v in kwargs.items()
            }
            self.calls.append((name, fn, kwargs))

    def run(self, done):
        _count_engine_points(done)
        return {name: fn(**kwargs) for name, fn, kwargs in self.calls}

    def outputs(self, raw):
        out: dict[str, object] = {}
        for fig, series in raw.items():
            for name, values in series.items():
                if isinstance(values, dict):  # ablation_preshaping's rows
                    for field, value in values.items():
                        out[f"{fig}/{name}/{field}"] = value
                else:
                    for x, y in values:
                        out[f"{fig}/{name}/{x}"] = y
        return out


class AoclSweep(Workload):
    expected = "aocl_grid"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = random.Random(seed)
        axes = SMOKE_AOCL_AXES if smoke else AOCL_AXES
        self.sweep = ParameterSweep(
            base=TuningParameters(array_bytes=SWEEP_ARRAY_BYTES),
            axes={name: rng.sample(values, len(values)) for name, values in axes.items()},
        )
        self.runner = BenchmarkRunner("aocl", ntimes=5)
        self.options: dict[str, object] = {}

    def run(self, done):
        return explore(
            self.runner,
            self.sweep,
            progress=lambda _result: done.append(time.perf_counter()),
            **self.options,
        )

    def outputs(self, raw):
        return {
            point_fingerprint("aocl", r.params): result_hash(r) for r in raw
        }


class AoclSweepProcess(AoclSweep):
    jobs = 2

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        self.journal = SweepJournal(workdir / "journal.jsonl", durable=True)
        self.options = {"backend": "process", "jobs": self.jobs, "journal": self.journal}


class SearchSmall(Workload):
    expected = "search_small"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        targets = list(SMOKE_SEARCH_TARGETS if smoke else SEARCH_TARGETS)
        random.Random(seed).shuffle(targets)
        self.runners = {t: BenchmarkRunner(t, ntimes=5) for t in targets}

    def run(self, done):
        _count_engine_points(done)
        return {
            target: multifidelity_search(
                runner, SEARCH_AXES, seed=SEARCH_BASE, budget=SEARCH_BUDGET
            )
            for target, runner in self.runners.items()
        }

    def outputs(self, raw):
        out: dict[str, object] = {}
        for target, result in raw.items():
            out[f"{target}/optimum"] = result_hash(result.best)
            for r in result.evaluations:
                out[f"{target}/{point_fingerprint(target, r.params)}"] = result_hash(r)
        return out

    def evaluations(self, raw):
        return sum(result.spent for result in raw.values())

    def points(self, raw, done):
        """Every pool point is resolved, by the model tier or by measurement."""
        return sum(result.pool_size for result in raw.values())

    def pins(self, raw):
        """The exhaustive optimum, and every grid point's hash, per target."""
        exact: dict[str, object] = {}
        allowed: dict[str, object] = {}
        for target in raw:
            grid = explore(
                BenchmarkRunner(target, ntimes=5),
                ParameterSweep(base=SEARCH_BASE, axes=SEARCH_AXES),
            )
            exact[f"{target}/optimum"] = result_hash(grid.best())
            for r in grid:
                allowed[f"{target}/{point_fingerprint(target, r.params)}"] = result_hash(r)
        return {"exact": exact, "allowed": allowed}


WORKLOADS: dict[str, type[Workload]] = {
    "paper_figures": PaperFigures,
    "aocl_sweep": AoclSweep,
    "aocl_sweep_process": AoclSweepProcess,
    "search_small": SearchSmall,
}
