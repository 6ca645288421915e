"""Design-space exploration end to end."""

from __future__ import annotations

from repro.core import (
    BenchmarkRunner,
    LoopManagement,
    ParameterSweep,
    TuningParameters,
    explore,
)
from repro.units import KIB


class TestExplore:
    def test_sweep_runs_every_point(self):
        runner = BenchmarkRunner("aocl", ntimes=1)
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=32 * KIB, loop=LoopManagement.FLAT),
            axes={"vector_width": [1, 2, 4]},
        )
        results = explore(runner, sweep)
        assert len(results) == 3
        assert all(r.ok for r in results)

    def test_progress_callback(self):
        seen = []
        runner = BenchmarkRunner("cpu", ntimes=1)
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=32 * KIB),
            axes={"vector_width": [1, 2]},
        )
        explore(runner, sweep, progress=seen.append)
        assert len(seen) == 2

    def test_failures_recorded_not_raised(self):
        runner = BenchmarkRunner("sdaccel", ntimes=1)
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=32 * KIB, loop=LoopManagement.NESTED),
            axes={"vector_width": [1, 16]},  # 16 overflows with 2 LSUs? copy fits;
        )
        results = explore(runner, sweep)
        assert len(results) == 2  # both points attempted

    def test_explore_best_dse(self):
        """The automated-DSE loop the paper motivates: vectorization wins
        on the FPGA target."""
        runner = BenchmarkRunner("aocl", ntimes=1)
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=256 * KIB, loop=LoopManagement.FLAT),
            axes={"vector_width": [1, 4, 16]},
        )
        results = explore(runner, sweep)
        best = results.best()
        assert best is not None
        assert best.params.vector_width == 16
        assert len(results) == 3

    def test_multi_axis_sweep(self):
        runner = BenchmarkRunner("cpu", ntimes=1)
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=32 * KIB),
            axes={
                "vector_width": [1, 4],
                "loop": [LoopManagement.NDRANGE, LoopManagement.FLAT],
            },
        )
        results = explore(runner, sweep)
        assert len(results) == 4
        best = results.best()
        assert best.params.loop is LoopManagement.NDRANGE  # CPU prefers NDRange
