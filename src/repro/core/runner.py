"""The benchmark runner: the stable front door to the execution engine.

Follows stream.c's discipline:

1. allocate the three arrays and initialize a=1, b=2, c=0;
2. build the generated kernel for the target;
3. one untimed warm-up launch (absorbs lazy migrations / first-touch);
4. ``ntimes`` timed launches; the *best* time is reported, the spread
   is kept;
5. validate the final array contents against the numpy reference.

Bandwidth = STREAM-counted bytes (2 arrays for COPY/SCALE, 3 for
ADD/TRIAD) over the best time. Times are queued->end (launch overhead
included), matching how the paper's small-array points roll off.

``StreamLocus.HOST`` measures the host<->device interconnect instead:
a timed ``enqueue_write_buffer`` + ``enqueue_read_buffer`` per
repetition, counting the bytes crossing PCIe.

The staged pipeline itself (generate → compile → plan → execute, with
content-addressed artifact caching and per-stage instrumentation) lives
in :mod:`repro.core.engine`; :class:`BenchmarkRunner` wraps one
:class:`~repro.core.engine.ExecutionEngine` so every existing call site
— sweeps, search, figures, CLI — rides the cached path for free.
"""

from __future__ import annotations

from ..faults import FaultPlan
from ..ocl.platform import Device
from ..ocl.program import BuildCache
from .engine import ExecutionEngine, Watchdog
from .params import LoopManagement, TuningParameters
from .results import RunResult

__all__ = ["BenchmarkRunner", "optimal_loop_for"]


class BenchmarkRunner:
    """Runs tuning-parameter points on one target device.

    A thin façade over :class:`~repro.core.engine.ExecutionEngine`;
    ``cache=False`` disables artifact caching (every point pays the
    full front-end + device build, the pre-engine behaviour).
    ``faults``, ``watchdog`` and ``retries`` configure the engine's
    resilience layer (fault injection, per-point budgets, transient
    retry); ``verify=True`` adds the differential verification stage
    after every point (see :mod:`repro.verify`).
    """

    def __init__(
        self,
        device: Device | str,
        *,
        ntimes: int = 5,
        warmup: int = 1,
        validate: bool = True,
        verify: bool = False,
        cache: BuildCache | bool = True,
        faults: FaultPlan | None = None,
        watchdog: Watchdog | None = None,
        retries: int = 2,
    ):
        self.engine = ExecutionEngine(
            device,
            ntimes=ntimes,
            warmup=warmup,
            validate=validate,
            verify=verify,
            cache=cache,
            faults=faults,
            watchdog=watchdog,
            retries=retries,
        )
        self.device = self.engine.device
        self.ntimes = ntimes
        self.warmup = warmup
        self.validate = validate
        self.verify = verify

    @property
    def target(self) -> str:
        return self.engine.target

    # -- public API -----------------------------------------------------------

    def run(self, params: TuningParameters) -> RunResult:
        """Run one parameter point; never raises for per-point failures.

        Build failures (including FPGA resource overflows) and
        validation failures come back as a failed :class:`RunResult`
        with the reason recorded, so sweeps can keep going — exactly
        what a long DSE campaign needs.
        """
        return self.engine.run(params)

    def run_all_kernels(self, params: TuningParameters) -> list[RunResult]:
        """Run COPY/SCALE/ADD/TRIAD at the same parameter point."""
        return self.engine.run_all_kernels(params)


def optimal_loop_for(device: Device | str) -> LoopManagement:
    """The loop management each target prefers (the paper's Fig 3 winners)."""
    short = device if isinstance(device, str) else device.short_name
    return {
        "cpu": LoopManagement.NDRANGE,
        "gpu": LoopManagement.NDRANGE,
        "aocl": LoopManagement.FLAT,
        "sdaccel": LoopManagement.NESTED,
    }.get(short, LoopManagement.NDRANGE)
