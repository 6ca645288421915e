"""The low-fidelity tier: analytic device-model scores, no execution.

The searcher (:mod:`repro.core.search.multifidelity`) ranks every
candidate in the pool before it spends any *measured* evaluations. The analytic device models already predict
launch time from the kernel IR alone — :meth:`DeviceModel.score_launch`
— so a "low-fidelity evaluation" here is generate → front-end → device
build → modelled seconds, with **no arrays allocated and no kernel
executed**. On the staged engine's shared :class:`BuildCache` the
front-end and plan stages are content-addressed, so scoring a pool of
``N`` candidates costs ``N`` cache-keyed builds and ``N`` closed-form
timing evaluations. That is about 0.44 ms per point on a 2-core VM
(the campaign benchmark's ``search_small``: 1.9 s for 4,320 scores),
not microseconds: a front-end compile per distinct kernel (live
campaigns share them), a device build and the model's timing.

Cache discipline matters: the scorer routes builds through the engine's
own :class:`BuildCache` with *exactly* the engine's error wrapping
(``ReproError`` → :class:`BuildError`), so a failure the scorer caches
is byte-identical to the failure a later ``explore()`` would cache. A
candidate that fails to build scores ``None`` and can never be promoted
— mirroring how a real FPGA flow discards configurations that fail
place-and-route before ever running them.
"""

from __future__ import annotations

from typing import Optional

from ...errors import BuildError, ReproError, SweepError
from ..engine import ExecutionEngine
from ..generator import generate
from ..kernels import KERNELS
from ..params import StreamLocus, TuningParameters
from ..runner import BenchmarkRunner

__all__ = ["LowFidelityScorer"]


class LowFidelityScorer:
    """Scores :class:`TuningParameters` points with the analytic model.

    ``score()`` returns predicted bandwidth in GB/s (STREAM-counted
    bytes over modelled seconds — the same currency measured results
    report) or ``None`` when the point fails to build. Scores are
    memoized per exact point.
    """

    def __init__(self, runner: "BenchmarkRunner | ExecutionEngine"):
        engine = runner.engine if isinstance(runner, BenchmarkRunner) else runner
        self.engine = engine
        self.device = engine.device
        self._memo: dict[TuningParameters, Optional[float]] = {}

    def check_scorable(self, params: TuningParameters) -> None:
        """Raise :class:`SweepError` if the model tier cannot score ``params``."""
        if params.locus is StreamLocus.HOST:
            raise SweepError(
                "host-stream points cannot be model-scored (PCIe "
                "streaming has no kernel launch to model), so autotune "
                "cannot search them; measure them with "
                "`mp-stream sweep --host-streams`"
            )

    def score(self, params: TuningParameters) -> Optional[float]:
        """Predicted GB/s for ``params``, or ``None`` on build failure."""
        if params in self._memo:
            return self._memo[params]
        self._memo[params] = score = self._score(params)
        return score

    def _score(self, params: TuningParameters) -> Optional[float]:
        from ...devices.base import BuildOptions, Launch

        gen = generate(params)
        try:
            if self.engine.cache is not None:
                checked, _ = self.engine.cache.frontend(gen.source, gen.defines)
            else:
                from ...oclc import compile_source_cached

                checked = compile_source_cached(gen.source, defines=gen.defines)

            defines = {k: str(v) for k, v in gen.defines.items()}
            options = BuildOptions(defines=defines)

            def build():
                # Identical wrapping to ExecutionEngine._stage_plan: the
                # plan cache is shared process-wide, so a failure cached
                # here must be the failure an engine run would cache.
                try:
                    return self.device.model.build(checked, options)
                except BuildError:
                    raise
                except ReproError as exc:
                    raise BuildError(
                        f"build failed for {self.device.short_name}",
                        device=self.device.short_name,
                        log=str(exc),
                    ) from exc

            if self.engine.cache is not None:
                plan, _ = self.engine.cache.plan(
                    gen.source, defines, self.device, build
                )
            else:
                plan = build()
        except ReproError:
            return None

        spec = KERNELS[params.kernel]
        launch = Launch(
            global_size=gen.global_size,
            local_size=gen.local_size,
            buffer_bytes={
                name: params.array_bytes for name in (*spec.reads, spec.writes)
            },
        )
        seconds = self.device.model.score_launch(plan, launch)
        if seconds <= 0:  # pragma: no cover - models always return > 0
            return None
        return params.moved_bytes / seconds / 1e9
