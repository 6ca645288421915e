"""The staged execution engine: generate → compile → plan → execute.

MP-STREAM's value is the *campaign* — thousands of tuning-parameter
points swept per target — and the monolithic run path used to pay the
whole cost (source generation, front-end lex/parse/type-check, device
build, fresh context and queue) at every single point.
:class:`ExecutionEngine` splits that path into four explicit stages
with cached artifacts between them:

1. **generate** — parameter point -> concrete kernel source
   (:func:`repro.core.generator.generate`; pure and cheap);
2. **compile** — source -> :class:`~repro.oclc.CheckedProgram` through
   the memoized front-end, content-addressed by
   ``(source, effective -D defines)``;
3. **plan** — checked program -> per-device
   :class:`~repro.devices.base.ExecutionPlan` via the device model's
   plan-cache hook, keyed by ``(source, defines, device)``; build
   *failures* (FPGA resource overflow) are cached and replayed too;
4. **execute** — stream.c's discipline on a long-lived context/queue
   pair: STREAM's three arrays (a=1, b=2, c=0), one untimed warm-up
   launch (:data:`WARMUP`), ``ntimes`` timed launches whose best time
   sets the bandwidth, then a check of the final arrays against the
   closed form. Every launch is timed on the device model; only the
   first executes the kernel, and the rest run inside
   :meth:`~repro.ocl.CommandQueue.external_execution`. A host-stream
   point (``StreamLocus.HOST``) times a write plus a read over the
   interconnect per launch instead;
5. **verify** (optional, ``verify=True``) — differential verification of
   the point's output through :mod:`repro.verify`: the observed arrays
   are checked against an independent re-derivation (oclc interpreter
   for small points, NumPy reference otherwise) under pinned ULP
   budgets. The stage runs strictly *after* the timed repetitions, so
   it never perturbs the measurement; a disagreement fails the point as
   ``failure_kind="verify_mismatch"`` with the structured verdict kept
   in ``detail["verify"]``.

Sweep points that differ only in array size or repetition count reuse
the stage-2/3 artifacts outright (an NDRange kernel's source never
mentions ``N``), so a 100-point campaign runs the front-end a handful
of times instead of 100.

Every :class:`~repro.core.results.RunResult` carries per-point
instrumentation under ``detail["engine"]``: per-stage wall seconds and
the cache outcome of the compile and plan stages. Campaign-wide
counters live on :attr:`ExecutionEngine.stats` /
:meth:`ExecutionEngine.stats_snapshot`.

Concurrency: one engine owns one context/queue and is *not* re-entrant.
Parallel campaigns run on worker processes, each rebuilding a sibling
from :meth:`worker_spec`; their stats, build-cache hits and misses
included, fold back through :meth:`EngineStats.merge_snapshot`.

Resilience: transient failures (marked with the
:class:`~repro.errors.TransientError` mixin — injected by a
:class:`~repro.faults.FaultPlan` or raised by a flaky backend) are
retried with capped exponential backoff (:data:`BACKOFF_S` doubling
per attempt up to :data:`BACKOFF_CAP_S`) and deterministic jitter;
permanent failures are classified into the
:func:`~repro.errors.failure_kind` taxonomy on the result. A
:class:`Watchdog` bounds each point's wall and/or virtual time so one
runaway configuration cannot hang a campaign: the engine checks the
budget cooperatively between stages and repetitions and cancels the
point as a ``"timeout"`` failure.

Observability: every completed point, stage boundary and retry also
reports into the process-wide :mod:`repro.obs` sinks when they are
active — nested wall-clock trace spans (sweep → point → stage → queue
command), metrics counters (``engine.points``, ``engine.stage_s.*``,
``engine.retries``) and structured JSONL events keyed by the point
fingerprint. Instrumentation is strictly observational:
:meth:`~repro.core.results.RunResult.fingerprint` is byte-identical
with the sinks on or off (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..errors import (
    BenchmarkError,
    PointTimeoutError,
    ReproError,
    TransientError,
    ValidationError,
    VerifyMismatchError,
    failure_kind,
)
from ..faults import FaultPlan, FaultSpec, InjectedReadbackFault
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..ocl import Buffer, CommandQueue, Context, Program
from ..ocl.platform import Device, find_device
from ..ocl.program import CACHE_COUNTERS, BuildCache, device_build
from ..rng import make_rng
from .generator import GeneratedKernel, generate
from .history import point_fingerprint
from .kernels import KERNELS, SCALAR_Q, initial_arrays
from .params import StreamLocus, TuningParameters
from .results import RunResult
from .validate import validate_solution

if TYPE_CHECKING:  # pragma: no cover
    from ..devices.base import DeviceModel, ExecutionPlan
    from ..devices.specs import DeviceSpec
    from ..oclc import CheckedProgram

__all__ = ["ExecutionEngine", "EngineStats", "Watchdog", "WorkerSpec", "STAGES"]

#: pipeline stage names, in order ("verify" only runs when enabled)
STAGES = ("generate", "compile", "plan", "execute", "verify")

#: untimed launches before the timed ones (stream.c's one warm-up)
WARMUP = 1

#: the first transient-retry delay, doubled per attempt, and its cap
BACKOFF_S = 0.05
BACKOFF_CAP_S = 1.0


@dataclass(frozen=True)
class Watchdog:
    """Per-point execution budget.

    ``wall_s`` bounds real elapsed seconds (catches stalls);
    ``virtual_s`` bounds the modelled device time a point may
    accumulate across its timed repetitions (deterministic, catches
    configurations that are legal but absurdly slow). Either may be
    ``None`` for unbounded. The budget applies to each attempt of a
    point independently.
    """

    wall_s: float | None = None
    virtual_s: float | None = None

    def __post_init__(self) -> None:
        for name, value in (("wall_s", self.wall_s), ("virtual_s", self.virtual_s)):
            if value is not None and value <= 0:
                raise BenchmarkError(f"Watchdog.{name} must be > 0, got {value}")

    @property
    def active(self) -> bool:
        return self.wall_s is not None or self.virtual_s is not None


class _PointBudget:
    """One attempt's countdown against a :class:`Watchdog`."""

    def __init__(self, watchdog: Watchdog):
        self.watchdog = watchdog
        self._t0 = time.monotonic()
        self._virtual = 0.0

    def check_wall(self) -> None:
        wall = self.watchdog.wall_s
        if wall is not None and time.monotonic() - self._t0 > wall:
            raise PointTimeoutError(f"point exceeded wall budget of {wall:g}s")

    def charge_virtual(self, seconds: float) -> None:
        self._virtual += seconds
        virtual = self.watchdog.virtual_s
        if virtual is not None and self._virtual > virtual:
            raise PointTimeoutError(
                f"point exceeded virtual budget of {virtual:g}s "
                f"(modelled time {self._virtual:.6g}s)"
            )
        self.check_wall()


class EngineStats:
    """Campaign-wide stage timing and point counters.

    Process-pool workers ship their increments home, build-cache
    hits/misses (:attr:`cache_counts`) included, and
    :meth:`merge_snapshot` folds them in. The lock serves the obs
    server thread, which reads the sink while a campaign runs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.stage_s: dict[str, float] = {name: 0.0 for name in STAGES}
        self.points = 0
        self.failures = 0
        self.retries = 0
        #: build-cache hits/misses merged in from worker processes
        self.cache_counts: dict[str, int] = dict.fromkeys(CACHE_COUNTERS, 0)

    def record_point(self, stage_s: dict[str, float], ok: bool) -> None:
        with self._lock:
            self.points += 1
            if not ok:
                self.failures += 1
            for name, seconds in stage_s.items():
                self.stage_s[name] = self.stage_s.get(name, 0.0) + seconds
        obs_metrics.count("engine.points")
        if not ok:
            obs_metrics.count("engine.failures")
        for name, seconds in stage_s.items():
            obs_metrics.count(f"engine.stage_s.{name}", seconds)
            obs_metrics.observe(f"engine.stage_s_per_point.{name}", seconds)

    def record_retry(self) -> None:
        with self._lock:
            self.retries += 1
        obs_metrics.count("engine.retries")

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "points": self.points,
                "failures": self.failures,
                "retries": self.retries,
                "stage_s": dict(self.stage_s),
                **self.cache_counts,
            }

    def merge_snapshot(self, snapshot: dict[str, object]) -> None:
        """Fold another stats sink's :meth:`snapshot` into this one.

        Worker processes (the scheduler's process backend) each
        accumulate into their own sink and ship incremental deltas home
        with every point outcome — this is the receiving end. Their
        metric counts arrive separately, through the telemetry relay
        (:mod:`repro.obs.relay`).
        """
        cache = {name: int(snapshot.get(name, 0) or 0) for name in CACHE_COUNTERS}
        stage_s = snapshot.get("stage_s") or {}
        with self._lock:
            self.points += int(snapshot.get("points", 0) or 0)
            self.failures += int(snapshot.get("failures", 0) or 0)
            self.retries += int(snapshot.get("retries", 0) or 0)
            for name, count in cache.items():
                self.cache_counts[name] += count
            for name, seconds in stage_s.items():  # type: ignore[union-attr]
                self.stage_s[name] = self.stage_s.get(name, 0.0) + float(seconds)


class _StageClock:
    """Collects wall time per stage for one point."""

    def __init__(self) -> None:
        self.stage_s: dict[str, float] = {}

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[name] = self.stage_s.get(name, 0.0) + (
                time.perf_counter() - t0
            )


@dataclass(frozen=True)
class WorkerSpec:
    """A picklable recipe for rebuilding a sibling engine elsewhere.

    The scheduler's process backend ships this spec across the
    ``fork``/``spawn`` boundary and calls
    :meth:`ExecutionEngine.from_worker_spec` on the far side. The device
    travels as its model class plus its frozen
    :class:`~repro.devices.specs.DeviceSpec`, so a custom device
    (:func:`~repro.devices.custom.device_from_dict`) is rebuilt
    exactly rather than looked up by name. Faults travel as the
    declarative :class:`~repro.faults.FaultSpec` (the executable
    :class:`~repro.faults.FaultPlan` is rebuilt from it, and is a pure
    function of the spec, so fault decisions are identical in every
    worker); each worker gets a private build cache and stats sink,
    merged home via :meth:`EngineStats.merge_snapshot`.
    """

    model_cls: "type[DeviceModel]"
    device_spec: "DeviceSpec"
    ntimes: int
    verify: bool
    cached: bool
    faults: FaultSpec | None
    watchdog: Watchdog | None
    retries: int


class ExecutionEngine:
    """Cached, staged benchmark execution on one target device.

    ``cache=False`` disables artifact caching (every point pays the
    full front-end and device build); a :class:`BuildCache` shares one
    between engines. ``faults``, ``watchdog`` and ``retries`` configure
    the resilience layer (fault injection, the per-point budget,
    transient retry); ``verify=True`` adds the differential
    verification stage after every point (see :mod:`repro.verify`).
    """

    def __init__(
        self,
        device: Device | str,
        *,
        ntimes: int = 5,
        verify: bool = False,
        cache: BuildCache | bool = True,
        faults: FaultPlan | None = None,
        watchdog: Watchdog | None = None,
        retries: int = 2,
    ):
        if isinstance(device, str):
            device = find_device(device)
        if ntimes < 1:
            raise BenchmarkError(f"ntimes must be >= 1, got {ntimes}")
        if retries < 0:
            raise BenchmarkError(f"retries must be >= 0, got {retries}")
        self.device = device
        self.ntimes = ntimes
        self.verify = verify
        if cache is True:
            self.cache: BuildCache | None = BuildCache()
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache
        self.stats = EngineStats()
        self.faults = faults
        self.watchdog = watchdog
        self.retries = retries
        self._ctx: Context | None = None
        self._queue: CommandQueue | None = None

    @property
    def target(self) -> str:
        return self.device.short_name

    def worker_spec(self) -> WorkerSpec:
        """This engine's configuration as a picklable :class:`WorkerSpec`."""
        model = self.device.model
        return WorkerSpec(
            model_cls=type(model),
            device_spec=model.spec,
            ntimes=self.ntimes,
            verify=self.verify,
            cached=self.cache is not None,
            faults=self.faults.spec if self.faults is not None else None,
            watchdog=self.watchdog,
            retries=self.retries,
        )

    @classmethod
    def from_worker_spec(cls, spec: WorkerSpec) -> "ExecutionEngine":
        """Rebuild a sibling engine from a spec (in a worker process).

        The sibling gets a *fresh* device model, build cache and stats
        sink — process workers cannot share the parent's — but
        byte-identical behavior everywhere else: cache state never
        changes what a point measures, only how fast it is obtained.
        """
        return cls(
            Device(spec.model_cls(spec.device_spec)),
            ntimes=spec.ntimes,
            verify=spec.verify,
            cache=spec.cached,
            faults=FaultPlan(spec.faults) if spec.faults is not None else None,
            watchdog=spec.watchdog,
            retries=spec.retries,
        )

    # -- public API -----------------------------------------------------------

    def run(self, params: TuningParameters) -> RunResult:
        """Run one parameter point; never raises for per-point failures.

        Build failures (including FPGA resource overflows) and
        validation failures come back as a failed :class:`RunResult`
        with the reason and :attr:`~repro.core.results.RunResult.failure_kind`
        recorded, so sweeps can keep going — exactly what a long DSE
        campaign needs. Transient failures
        (:class:`~repro.errors.TransientError`) are retried up to
        ``retries`` times with capped exponential backoff; the
        ``watchdog`` budget cancels a runaway attempt as a
        ``"timeout"`` failure. Attempt counts and backoff land in
        ``detail["engine"]``.
        """
        dog = self.watchdog
        key = point_fingerprint(self.target, params)
        clock = _StageClock()
        attempt = 0
        backoff_total = 0.0
        transient_log: list[str] = []
        obs_events.emit(
            "point_started", point=key, target=self.target, params=params.describe()
        )
        with obs_trace.span(
            "point", "sweep", point=key, target=self.target, params=params.describe()
        ) as point_span:
            while True:
                budget = _PointBudget(dog) if dog is not None and dog.active else None
                try:
                    if params.locus is StreamLocus.HOST:
                        result = self._run_host_stream(
                            params, clock, key=key, attempt=attempt, budget=budget
                        )
                    else:
                        result = self._run_device_stream(
                            params, clock, key=key, attempt=attempt, budget=budget
                        )
                    break
                except ReproError as exc:
                    if isinstance(exc, TransientError) and attempt < self.retries:
                        transient_log.append(f"{type(exc).__name__}: {exc}")
                        delay = self._backoff_delay(key, attempt)
                        backoff_total += delay
                        attempt += 1
                        self.stats.record_retry()
                        obs_events.emit(
                            "point_retry",
                            point=key,
                            target=self.target,
                            attempt=attempt,
                            backoff_s=delay,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    if isinstance(exc, ValidationError):
                        message = f"validation: {exc}"
                    else:
                        message = f"{type(exc).__name__}: {exc}"
                    result = self._failure(
                        params,
                        message,
                        clock,
                        kind=failure_kind(exc),
                        verify=exc.verdict
                        if isinstance(exc, VerifyMismatchError)
                        else None,
                    )
                    break
            point_span.set(ok=result.ok, attempts=attempt + 1)
        engine_detail = result.detail["engine"]
        assert isinstance(engine_detail, dict)
        engine_detail["attempts"] = attempt + 1
        engine_detail["backoff_s"] = backoff_total
        if transient_log:
            engine_detail["transient_errors"] = transient_log
        self.stats.record_point(clock.stage_s, result.ok)
        obs_metrics.count("engine.backoff_s", backoff_total)
        obs_events.emit(
            "point_finished",
            point=key,
            target=self.target,
            ok=result.ok,
            failure_kind=result.failure_kind,
            attempts=attempt + 1,
            bandwidth_gbs=result.bandwidth_gbs,
        )
        return result

    def _backoff_delay(self, point_key: str, attempt: int) -> float:
        """Exponential backoff with deterministic jitter, capped.

        The jitter factor (0.5–1.5) is derived from the point key and
        attempt number — reproducible, but still decorrelates workers
        that hit the same flaky resource simultaneously.
        """
        base = min(BACKOFF_CAP_S, BACKOFF_S * (2.0**attempt))
        digest = hashlib.sha256(
            f"backoff\x1f{attempt}\x1f{point_key}".encode()
        ).digest()
        jitter = 0.5 + float(
            make_rng(int.from_bytes(digest[:8], "little")).random()
        )
        return min(BACKOFF_CAP_S, base * jitter)

    def run_all_kernels(self, params: TuningParameters) -> list[RunResult]:
        """Run COPY/SCALE/ADD/TRIAD at the same parameter point."""
        return [self.run(params.with_(kernel=k)) for k in KERNELS]

    def stats_snapshot(self) -> dict[str, object]:
        """Campaign counters: stage seconds, points, cache hits/misses.

        Cache hits and misses sum this engine's own build cache and the
        counts merged in from worker processes; ``frontend_entries`` is
        the size of this engine's own front-end cache.
        """
        out = self.stats.snapshot()
        own = self.cache.stats() if self.cache is not None else {}
        for name in (*CACHE_COUNTERS, "frontend_entries"):
            out[name] = out.get(name, 0) + own.get(name, 0)
        return out

    # -- stages -----------------------------------------------------------------

    def _stage_generate(
        self, params: TuningParameters, clock: _StageClock
    ) -> GeneratedKernel:
        with obs_trace.span("generate", "engine"), clock.timed("generate"):
            return generate(params)

    def _stage_compile(
        self, gen: GeneratedKernel, clock: _StageClock
    ) -> tuple["CheckedProgram", str]:
        from ..oclc import compile_source

        with obs_trace.span("compile", "engine") as span, clock.timed("compile"):
            if self.cache is None:
                return compile_source(
                    gen.source, {k: str(v) for k, v in gen.defines.items()}
                ), "off"
            checked, hit = self.cache.frontend(gen.source, gen.defines)
            span.set(cache="hit" if hit else "miss")
            return checked, "hit" if hit else "miss"

    def _stage_plan(
        self, gen: GeneratedKernel, checked: "CheckedProgram", clock: _StageClock
    ) -> tuple["ExecutionPlan", str]:
        from ..devices.base import BuildOptions

        options = BuildOptions(defines={k: str(v) for k, v in gen.defines.items()})

        def build() -> "ExecutionPlan":
            return device_build(self.device, checked, options)

        with obs_trace.span("plan", "engine") as span, clock.timed("plan"):
            if self.cache is None:
                return build(), "off"
            plan, hit = self.cache.plan(checked, self.device, build)
            span.set(cache="hit" if hit else "miss")
            return plan, "hit" if hit else "miss"

    def _stage_verify(
        self,
        params: TuningParameters,
        gen: GeneratedKernel,
        observed: dict[str, np.ndarray],
        clock: _StageClock,
        *,
        key: str,
        attempt: int,
    ) -> dict[str, object]:
        """Stage 5: differential verification of the observed output.

        Runs strictly after the timed repetitions (off the timed path)
        and raises :class:`~repro.errors.VerifyMismatchError` — a
        *permanent* failure, a miscompile reproduces on retry — when
        the device output disagrees with the independent re-derivation.
        The ``verify`` fault site's miscompile hook corrupts the
        re-derived side, so STREAM validation stays green and only this
        stage can catch it.
        """
        from ..verify.conformance import verify_device_outputs

        corrupt = None
        if self.faults is not None:
            faults = self.faults

            def corrupt(arrays: dict[str, np.ndarray]) -> bool:
                return faults.corrupt_verify(key, attempt, arrays)

        with obs_trace.span("verify", "engine") as span, clock.timed("verify"):
            verdict = verify_device_outputs(params, gen, observed, corrupt=corrupt)
            span.set(ok=verdict["ok"], mode=verdict["mode"])
        obs_metrics.count("verify.points")
        if not verdict["ok"]:
            obs_metrics.count("verify.mismatches")
            raise VerifyMismatchError(str(verdict["error"]), verdict=verdict)
        return verdict

    # -- fault/watchdog plumbing -------------------------------------------------

    def _checkpoint(
        self, site: str, key: str, attempt: int, budget: _PointBudget | None
    ) -> None:
        """A stage boundary: inject the site's fault, then check the budget."""
        if self.faults is not None:
            self.faults.check(site, key, attempt)
        if budget is not None:
            budget.check_wall()

    def _fault_hook(self, key: str, attempt: int, fired: set[str]):
        """The per-attempt hook installed on the queue's fault port."""
        faults = self.faults
        assert faults is not None

        def hook(site: str, payload: object = None) -> None:
            if site == "readback":
                if isinstance(payload, np.ndarray) and faults.corrupt_readback(
                    key, attempt, payload
                ):
                    fired.add("readback")
                return
            faults.check(site, key, attempt)

        return hook

    # -- device-stream mode -------------------------------------------------------

    def _run_device_stream(
        self,
        params: TuningParameters,
        clock: _StageClock,
        *,
        key: str,
        attempt: int,
        budget: _PointBudget | None,
    ) -> RunResult:
        self._checkpoint("generate", key, attempt, budget)
        gen = self._stage_generate(params, clock)
        self._checkpoint("compile", key, attempt, budget)
        checked, frontend_outcome = self._stage_compile(gen, clock)
        # the build fault fires *before* the plan cache is consulted, so
        # whether it strikes cannot depend on cache state (and therefore
        # on execution order or resume position)
        self._checkpoint("build", key, attempt, budget)
        plan, plan_outcome = self._stage_plan(gen, checked, clock)
        if budget is not None:
            budget.check_wall()

        fired: set[str] = set()
        with obs_trace.span("execute", "engine"), clock.timed("execute"):
            ctx, queue = self._runtime()
            if self.faults is not None:
                queue.fault_hook = self._fault_hook(key, attempt, fired)
            program = Program.from_artifacts(
                ctx,
                gen.source,
                checked=checked,
                plans={self.device.short_name: plan},
                defines=gen.defines,
            )
            kernel = program.create_kernel(gen.kernel_name)

            words = initial_arrays(1, params.dtype)
            buffers = self._make_buffers(ctx, words, params.word_count)
            try:
                self._bind(kernel, params, buffers)
                if self.faults is not None:
                    self.faults.stall(
                        key,
                        attempt,
                        budget.check_wall if budget is not None else None,
                    )

                # Every KERNELS entry writes a buffer it does not read,
                # so one functional pass leaves the buffers bit-identical
                # to WARMUP + ntimes passes: the first launch executes,
                # the rest are timed on the model alone. Every launch
                # still goes through the queue, so the fault hook,
                # events, counters and the watchdog see each one.
                times = []
                last_detail: dict[str, object] = {}
                for launch in range(WARMUP + self.ntimes):
                    with queue.external_execution() if launch else nullcontext():
                        event = queue.enqueue_nd_range_kernel(
                            kernel, gen.global_size, gen.local_size
                        )
                    if launch < WARMUP:
                        continue
                    times.append(event.latency)
                    last_detail = dict(event.detail)
                    if budget is not None:
                        budget.charge_virtual(event.latency)

                # views, not copies: releasing the buffers below leaves
                # their storage to the views
                observed = {
                    name: buffer.view(words[name].dtype)
                    for name, buffer in buffers.items()
                }
                if self.faults is not None and self.faults.corrupt_readback(
                    key, attempt, observed
                ):
                    fired.add("readback")
                try:
                    validate_solution(
                        params.kernel,
                        params.dtype,
                        observed,
                        word_count=params.word_count,
                        touched_words=gen.touched_words,
                    )
                except ValidationError as exc:
                    if "readback" in fired:
                        raise InjectedReadbackFault(
                            f"injected readback corruption detected: {exc}"
                        ) from exc
                    raise
            finally:
                queue.fault_hook = None
                self._release(ctx, buffers)

        # The vectorize fault site models an array-lane miscompile
        # *below* the STREAM validation tolerance: it corrupts the
        # observed arrays strictly after validation passed, so only the
        # strict differential verify stage can catch it — as a
        # permanent ``verify_mismatch`` failure, never a crash.
        if self.faults is not None and self.faults.corrupt_vectorize(
            key, attempt, observed
        ):
            fired.add("vectorize")
        if self.verify:
            last_detail["verify"] = self._stage_verify(
                params, gen, observed, clock, key=key, attempt=attempt
            )
        last_detail["build_log"] = program.build_log(self.device)
        last_detail["generated_source"] = gen.source
        last_detail["engine"] = self._instrumentation(
            clock, frontend_outcome, plan_outcome
        )
        return RunResult(
            target=self.target,
            params=params,
            times=tuple(times),
            moved_bytes=params.moved_bytes,
            validated=True,
            detail=last_detail,
        )

    def _make_buffers(
        self, ctx: Context, words: dict[str, np.ndarray], word_count: int
    ) -> dict[str, Buffer]:
        """STREAM's arrays, each allocated once and filled in place.

        ``words`` holds each array's initial word. A buffer made by size
        is zeroed and device-resident, so warm-up measures steady state;
        only a non-zero word is written.
        """
        buffers: dict[str, Buffer] = {}
        for name, word in words.items():
            buffers[name] = ctx.create_buffer(size=word_count * word.itemsize)
            if word[0]:
                buffers[name].view(word.dtype).fill(word[0])
        return buffers

    def _bind(
        self,
        kernel: "object",
        params: TuningParameters,
        buffers: dict[str, Buffer],
    ) -> None:
        spec = KERNELS[params.kernel]
        named: dict[str, object] = {
            name: buffers[name] for name in (*spec.reads, spec.writes)
        }
        if spec.uses_scalar:
            named["q"] = SCALAR_Q
        kernel.set_args(**named)  # type: ignore[attr-defined]

    # -- host-stream (PCIe) mode ------------------------------------------------------

    def _run_host_stream(
        self,
        params: TuningParameters,
        clock: _StageClock,
        *,
        key: str,
        attempt: int,
        budget: _PointBudget | None,
    ) -> RunResult:
        """Measure host->device->host streaming over the interconnect."""
        fired: set[str] = set()
        with obs_trace.span("execute", "engine"), clock.timed("execute"):
            ctx, queue = self._runtime()
            if self.faults is not None:
                queue.fault_hook = self._fault_hook(key, attempt, fired)
            word = initial_arrays(1, params.dtype)["a"]
            src = np.full(params.word_count, word[0], dtype=word.dtype)
            dst = np.empty_like(src)
            buffer = ctx.create_buffer(size=params.array_bytes)
            try:
                if self.faults is not None:
                    self.faults.stall(
                        key,
                        attempt,
                        budget.check_wall if budget is not None else None,
                    )
                times = []
                for _ in range(WARMUP + self.ntimes):
                    w = queue.enqueue_write_buffer(buffer, src)
                    r = queue.enqueue_read_buffer(buffer, dst)
                    times.append((w.end - w.queued) + (r.end - r.queued))
                    if budget is not None:
                        budget.charge_virtual(times[-1])
                times = times[WARMUP:]

                if not np.array_equal(dst, src):
                    if "readback" in fired:
                        raise InjectedReadbackFault(
                            "injected corruption on the host-stream "
                            "round trip detected"
                        )
                    raise ValidationError("host-stream round trip corrupted data")
            finally:
                queue.fault_hook = None
                self._release(ctx, {"xfer": buffer})
        return RunResult(
            target=self.target,
            params=params,
            times=tuple(times),
            moved_bytes=2 * params.array_bytes,  # one write + one read
            validated=True,
            detail={
                "mode": "host-stream",
                "engine": self._instrumentation(clock, "off", "off"),
            },
        )

    # -- plumbing ---------------------------------------------------------------

    def _runtime(self) -> tuple[Context, CommandQueue]:
        """The engine's long-lived context/queue pair (created lazily).

        The queue's virtual clock is restarted for every point so the
        measurement is independent of campaign position; its warm
        kernel-specialization cache survives the reset.
        """
        if self._ctx is None:
            self._ctx = Context(self.device)
            self._queue = CommandQueue(self._ctx, self.device)
        assert self._queue is not None
        self._queue.reset_profile()
        return self._ctx, self._queue

    def _release(self, ctx: Context, buffers: dict[str, Buffer]) -> None:
        for buffer in buffers.values():
            if not buffer.released:
                buffer.release()
        ctx.prune_released()

    def _instrumentation(
        self, clock: _StageClock, frontend: str, plan: str
    ) -> dict[str, object]:
        return {
            "stage_s": {
                name: clock.stage_s.get(name, 0.0) for name in STAGES
            },
            "frontend_cache": frontend,
            "plan_cache": plan,
        }

    def _failure(
        self,
        params: TuningParameters,
        error: str,
        clock: _StageClock,
        *,
        kind: str = "",
        verify: dict[str, object] | None = None,
    ) -> RunResult:
        detail: dict[str, object] = {
            "engine": self._instrumentation(clock, "n/a", "n/a")
        }
        if verify is not None:
            detail["verify"] = verify
        return RunResult(
            target=self.target,
            params=params,
            times=(),
            moved_bytes=params.moved_bytes,
            validated=False,
            error=error,
            failure_kind=kind,
            detail=detail,
        )
