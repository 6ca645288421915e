"""The low-fidelity tier: analytic device-model scores, no execution.

The searcher (:mod:`repro.core.search.multifidelity`) ranks every
candidate in the pool before it spends any *measured* evaluations. The analytic device models already predict
launch time from the kernel IR alone — :meth:`DeviceModel.score_launch`
— so a "low-fidelity evaluation" here is generate → front-end → device
build → modelled seconds, with **no arrays allocated and no kernel
executed**. The front-end and device-build steps are the engine's own
compile and plan stages, so on its shared :class:`BuildCache` they are
content-addressed, and a build failure the scorer caches is the
failure a later ``explore()`` would cache. Each kernel is analyzed
once per program, and each strided index sampled once per launch
size, so every target shares both. Scoring a pool of ``N``
candidates costs ``N`` cache-keyed builds and ``N`` closed-form timing
evaluations: about 0.33 ms per point on a 2-core VM (the campaign
benchmark's ``search_small``: 1.43 s for 4,320 scores), the largest
part a front-end compile per distinct kernel, which live campaigns
share.

A candidate that fails to build scores ``None`` and can never be
promoted — mirroring how a real FPGA flow discards configurations that
fail place-and-route before ever running them.
"""

from __future__ import annotations

from typing import Optional

from ...errors import ReproError, SweepError
from ..engine import ExecutionEngine, _StageClock
from ..generator import generate
from ..kernels import KERNELS
from ..params import StreamLocus, TuningParameters

__all__ = ["LowFidelityScorer"]


class LowFidelityScorer:
    """Scores :class:`TuningParameters` points with the analytic model.

    ``score()`` returns predicted bandwidth in GB/s (STREAM-counted
    bytes over modelled seconds — the same currency measured results
    report) or ``None`` when the point fails to build. Scores are
    memoized per exact point.
    """

    def __init__(self, engine: ExecutionEngine):
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
        from ...devices.base import Launch

        gen = generate(params)
        clock = _StageClock()
        try:
            checked, _ = self.engine._stage_compile(gen, clock)
            plan, _ = self.engine._stage_plan(gen, checked, clock)
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
