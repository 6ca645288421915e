"""Command queues with a virtual device clock.

The queue is where functional simulation and performance modelling
meet: ``enqueue_nd_range_kernel`` *executes* the kernel on the numpy
buffers so results can be validated, and *times* it by asking the
device model — then stamps an :class:`~repro.ocl.events.Event` with
virtual-clock timestamps, which is exactly what the benchmark's host
code measures.

Functional execution has two drivers and no knob: the whole-NDRange
array lane (:class:`~repro.oclc.vectorize.VectorKernel`), and the
work-item interpreter (:class:`~repro.oclc.interp.KernelInterpreter`)
for any kernel the array lane refuses, at build or at launch time.
The queue keeps the most recently used runners, up to
``_RUNNER_CACHE_SIZE``. Inside :meth:`CommandQueue.external_execution`
a launch is timed but not executed; the engine times all but the first
launch of a point that way.

Two scheduling modes, as in OpenCL:

* **in-order** (default): every command implicitly depends on the
  previous one; timestamps are strictly sequential.
* **out-of-order**: commands start when their ``wait_for`` events have
  completed *and* their engine is free. The device exposes three
  engines — the compute engine and two DMA engines (h2d, d2h) — so
  transfers overlap kernels, which is how double-buffered streaming
  hides PCIe time.

Functional effects are applied eagerly at enqueue time in program
order; with correct ``wait_for`` dependencies that matches any legal
execution order (and without them, real OpenCL would race too).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from ..errors import InvalidValueError, LaunchError, UnsupportedKernelError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .buffer import Buffer
from .events import CommandType, Event

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel
    from .context import Context
    from .platform import Device

__all__ = ["CommandQueue"]

_ENGINES = ("compute", "h2d", "d2h")

#: kernel runners kept per queue, least recently used evicted first; a
#: sweep point runs its kernel once, so a runner is reused only when
#: the same program launches again on this queue
_RUNNER_CACHE_SIZE = 8


class CommandQueue:
    """A command queue on one device, with profiling always enabled."""

    def __init__(
        self,
        context: "Context",
        device: "Device | None" = None,
        *,
        out_of_order: bool = False,
    ):
        if device is None:
            device = context.devices[0]
        if device not in context.devices:
            raise InvalidValueError("device is not part of the context")
        self.context = context
        self.device = device
        self.out_of_order = out_of_order
        self.events: list[Event] = []
        self._engine_free: dict[str, float] = {e: 0.0 for e in _ENGINES}
        self._last_event: Event | None = None
        #: host-side enqueue clock (monotone, nearly free per command)
        self._enqueue_clock: float = 0.0
        #: per-point command/byte counters; reset by :meth:`reset_profile`
        self.counters: dict[str, float] = self._fresh_counters()
        self._specialized_cache: dict[tuple[int, str], object] = {}
        #: set by :meth:`external_execution`: functional results already
        #: live in the buffers, so :meth:`_execute` must not re-run
        self._skip_execute = False
        #: fault-injection port (see :mod:`repro.faults`): when set, the
        #: queue calls it with a site name — ``"launch"`` before a kernel
        #: launch (the hook may raise to model a flaky driver) and
        #: ``"readback"`` with the destination array after a read (the
        #: hook may corrupt it). ``None`` disables injection entirely.
        self.fault_hook: Callable[..., None] | None = None

    @property
    def now(self) -> float:
        """Virtual time when all submitted work completes."""
        return max(self._engine_free.values())

    @staticmethod
    def _fresh_counters() -> dict[str, float]:
        return {
            "commands": 0,
            "kernel_launches": 0,
            "h2d_bytes": 0,
            "d2h_bytes": 0,
            "copy_bytes": 0,
            "virtual_busy_s": 0.0,
        }

    def _count_command(
        self, command: CommandType, duration: float, detail: dict
    ) -> None:
        counters = self.counters
        counters["commands"] += 1
        counters["virtual_busy_s"] += duration
        obs_metrics.count("queue.commands")
        if command is CommandType.ND_RANGE_KERNEL:
            counters["kernel_launches"] += 1
            obs_metrics.count("queue.kernel_launches")
        elif command is CommandType.WRITE_BUFFER:
            nbytes = int(detail.get("bytes", 0))
            counters["h2d_bytes"] += nbytes
            obs_metrics.count("queue.h2d_bytes", nbytes)
        elif command is CommandType.READ_BUFFER:
            nbytes = int(detail.get("bytes", 0))
            counters["d2h_bytes"] += nbytes
            obs_metrics.count("queue.d2h_bytes", nbytes)
        elif command is CommandType.COPY_BUFFER:
            nbytes = int(detail.get("bytes", 0))
            counters["copy_bytes"] += nbytes
            obs_metrics.count("queue.copy_bytes", nbytes)

    # -- scheduling core ---------------------------------------------------------

    def _schedule(
        self,
        command: CommandType,
        engine: str,
        duration: float,
        detail: dict,
        wait_for: Sequence[Event] | None,
        overhead: float = 0.0,
    ) -> Event:
        enqueued = self._enqueue_clock
        self._enqueue_clock += 1e-9  # host enqueue cost: negligible, monotone
        deps_end = 0.0
        if wait_for:
            for dep in wait_for:
                if not dep.complete:
                    raise InvalidValueError("wait_for contains an incomplete event")
                deps_end = max(deps_end, dep.end)
        if not self.out_of_order and self._last_event is not None:
            deps_end = max(deps_end, self._last_event.end)
        # QUEUED is stamped when the command becomes eligible (its
        # dependencies are met), so event.latency measures this command's
        # own cost — engine wait + launch overhead + execution — exactly
        # what STREAM-style per-repetition timing wants.
        submit = max(enqueued, deps_end)
        start = max(submit, self._engine_free[engine]) + overhead
        end = start + duration
        event = Event(
            command=command,
            queued=submit,
            submit=submit,
            start=start,
            end=end,
            complete=True,
            detail=detail,
        )
        self._engine_free[engine] = end
        self._last_event = event
        self.events.append(event)
        self._count_command(command, duration, detail)
        return event

    # -- transfers -----------------------------------------------------------------

    def enqueue_write_buffer(
        self,
        buffer: Buffer,
        src: np.ndarray,
        *,
        wait_for: Sequence[Event] | None = None,
    ) -> Event:
        """Host -> device transfer over the simulated interconnect."""
        with obs_trace.span("write_buffer", "queue") as span:
            buffer._check_alive()
            src_flat = np.ascontiguousarray(src).reshape(-1)
            if src_flat.nbytes > buffer.size:
                raise InvalidValueError(
                    f"source of {src_flat.nbytes} bytes exceeds buffer ({buffer.size})"
                )
            buffer.view(src_flat.dtype)[: src_flat.size] = src_flat
            buffer.residency = "device"
            seconds = self.device.model.transfer_time(src_flat.nbytes, "h2d")
            span.set(bytes=src_flat.nbytes, virtual_s=seconds)
            return self._schedule(
                CommandType.WRITE_BUFFER,
                "h2d",
                seconds,
                {"bytes": src_flat.nbytes, "dir": "h2d"},
                wait_for,
            )

    def enqueue_read_buffer(
        self,
        buffer: Buffer,
        dst: np.ndarray,
        *,
        wait_for: Sequence[Event] | None = None,
    ) -> Event:
        """Device -> host transfer over the simulated interconnect."""
        with obs_trace.span("read_buffer", "queue") as span:
            buffer._check_alive()
            dst_flat = dst.reshape(-1)
            if dst_flat.nbytes > buffer.size:
                raise InvalidValueError(
                    f"destination of {dst_flat.nbytes} bytes exceeds buffer ({buffer.size})"
                )
            dst_flat[:] = buffer.view(dst_flat.dtype)[: dst_flat.size]
            if self.fault_hook is not None:
                self.fault_hook("readback", dst_flat)
            seconds = self.device.model.transfer_time(dst_flat.nbytes, "d2h")
            span.set(bytes=dst_flat.nbytes, virtual_s=seconds)
            return self._schedule(
                CommandType.READ_BUFFER,
                "d2h",
                seconds,
                {"bytes": dst_flat.nbytes, "dir": "d2h"},
                wait_for,
            )

    def enqueue_copy_buffer(
        self,
        src: Buffer,
        dst: Buffer,
        *,
        wait_for: Sequence[Event] | None = None,
    ) -> Event:
        """Device-to-device copy within global memory."""
        src._check_alive()
        dst._check_alive()
        if src.size > dst.size:
            raise InvalidValueError("source buffer larger than destination")
        dst.view(np.uint8)[: src.size] = src.view(np.uint8)
        seconds = self.device.model.copy_time(src.size)
        return self._schedule(
            CommandType.COPY_BUFFER,
            "compute",
            seconds,
            {"bytes": src.size},
            wait_for,
        )

    def enqueue_marker(
        self, *, wait_for: Sequence[Event] | None = None
    ) -> Event:
        """A zero-duration synchronization point (clEnqueueMarker)."""
        return self._schedule(CommandType.MARKER, "compute", 0.0, {}, wait_for)

    # -- kernels ----------------------------------------------------------------------

    def enqueue_nd_range_kernel(
        self,
        kernel: "Kernel",
        global_size: tuple[int, ...] | int,
        local_size: tuple[int, ...] | None = None,
        *,
        wait_for: Sequence[Event] | None = None,
    ) -> Event:
        """Launch a kernel: run it functionally, time it with the model."""
        from ..devices.base import Launch
        from ..oclc.interp import BufferArg

        with obs_trace.span("nd_range_kernel", "queue") as span:
            if self.fault_hook is not None:
                self.fault_hook("launch")
            if isinstance(global_size, int):
                global_size = (global_size,)
            global_size = tuple(int(g) for g in global_size)
            kernel.validate_launch(self.device, global_size, local_size)
            args = kernel.bound_args()

            plan = kernel.program.plan_for(self.device)
            if plan.ir.name != kernel.name:
                plan = self.device.model.plan_for_kernel(plan, kernel.name)

            # Write-protection and residency checks.
            migrated = 0
            for name, value in args.items():
                if isinstance(value, Buffer):
                    access = [a for a in plan.ir.accesses if a.param == name]
                    if any(a.is_write for a in access) and not value.writable():
                        raise LaunchError(
                            f"kernel {kernel.name!r} writes read-only buffer {name!r}"
                        )
                    if value.residency == "host":
                        migrated += value.size
                        value.residency = "device"

            # Functional execution.
            call_args = {
                name: BufferArg(value.view(self._element_dtype(kernel, name)))
                if isinstance(value, Buffer)
                else value
                for name, value in args.items()
            }
            self._execute(kernel, global_size, local_size, call_args)

            # Performance model.
            launch = Launch(
                global_size=global_size,
                local_size=local_size,
                buffer_bytes={
                    n: v.size for n, v in args.items() if isinstance(v, Buffer)
                },
            )
            timing = self.device.model.kernel_timing(plan, launch)
            detail = dict(timing.detail)
            migration_s = 0.0
            if migrated:
                migration_s = self.device.model.transfer_time(migrated, "h2d")
                detail["implicit_migration_s"] = migration_s
                detail["implicit_migration_bytes"] = migrated
            span.set(
                kernel=kernel.name,
                global_size=list(global_size),
                virtual_s=timing.execution_s,
            )
            return self._schedule(
                CommandType.ND_RANGE_KERNEL,
                "compute",
                timing.execution_s,
                detail,
                wait_for,
                overhead=timing.launch_overhead_s + migration_s,
            )

    def _element_dtype(self, kernel: "Kernel", name: str) -> np.dtype:
        from .types import PointerType, ScalarType, VectorType

        ty = kernel.param_types[name]
        assert isinstance(ty, PointerType)
        pointee = ty.pointee
        if isinstance(pointee, (ScalarType, VectorType)):
            return pointee.dtype
        raise InvalidValueError(f"cannot derive dtype for parameter {name!r}")

    def _execute(
        self,
        kernel: "Kernel",
        global_size: tuple[int, ...],
        local_size: tuple[int, ...] | None,
        call_args: dict[str, object],
    ) -> None:
        if self._skip_execute:
            return
        from ..oclc.interp import KernelInterpreter
        from ..oclc.vectorize import VectorKernel, vectorize_kernel

        checked = kernel.program.checked
        assert checked is not None
        # a runner holds its CheckedProgram, so the id of a cached
        # program cannot be recycled while its entry lives
        cache = self._specialized_cache
        cache_key = (id(checked), kernel.name)
        runner = cache.pop(cache_key, None)
        if runner is None:
            try:
                runner = vectorize_kernel(checked, kernel.name)
            except UnsupportedKernelError:
                runner = KernelInterpreter(checked, kernel.name)
        cache[cache_key] = runner
        if len(cache) > _RUNNER_CACHE_SIZE:
            del cache[next(iter(cache))]
        if isinstance(runner, VectorKernel):
            try:
                runner.run(global_size, call_args, local_size)
            except UnsupportedKernelError:
                # this launch's shape or arguments (e.g. an output
                # aliasing an input) are outside the array lane: the
                # interpreter runs it, and this kernel from now on
                runner = KernelInterpreter(checked, kernel.name)
                cache[cache_key] = runner
            else:
                obs_metrics.count("fastpath.runs.vectorized")
                return
        runner.run(global_size, call_args, local_size)
        obs_metrics.count("fastpath.runs.interpreted")

    @contextmanager
    def external_execution(self) -> Iterator[None]:
        """Launches inside this context skip functional execution.

        Each launch is still a full command: fault hook, launch
        validation, model timing, event and counters. Only the kernel
        body does not run, so the buffers must already hold its
        results. The engine uses this for every launch of a point after
        the first: a STREAM kernel writes a buffer it does not read, so
        re-running it would recompute identical results. Outside this
        context every launch executes, which direct queue users whose
        arrays change between launches rely on.
        """
        prev = self._skip_execute
        self._skip_execute = True
        try:
            yield
        finally:
            self._skip_execute = prev

    # -- bookkeeping ----------------------------------------------------------------

    def finish(self) -> float:
        """Wait for everything (virtually); returns the completion time."""
        return self.now

    def reset_profile(self) -> None:
        """Restart the virtual clock, drop events and zero the counters.

        Warm state (the kernel-specialization cache) is kept. The
        execution engine calls this between measurement points so a
        long-lived queue produces timestamps — and therefore latencies —
        bit-identical to a fresh queue's: subtracting nearby large
        floats (late in a campaign's virtual time) would otherwise
        drift in the last ulps. The per-queue :attr:`counters` restart
        too, so per-point command/byte statistics never leak across
        points of a long campaign (campaign-wide totals live in the
        :mod:`repro.obs.metrics` registry instead).
        """
        self._engine_free = {e: 0.0 for e in _ENGINES}
        self._last_event = None
        self._enqueue_clock = 0.0
        self.events.clear()
        self.counters = self._fresh_counters()
