"""Programs: source -> per-device builds.

``Program`` mirrors ``clCreateProgramWithSource`` + ``clBuildProgram``:
the OpenCL-C front-end checks the source once (with the build's ``-D``
defines), then each device's performance model derives its
:class:`~repro.devices.base.ExecutionPlan` — the analogue of the vendor
offline compile, including FPGA resource estimation, which can fail the
build just like a real place-and-route overflow would. A device build
is a function of the checked program and the device alone.

:class:`BuildCache` is the engine-scoped build cache: it content-
addresses front-end artifacts and device plans by
``(source, effective -D defines, device)``, so a sweep rebuilds nothing
it has already built. Every :class:`~repro.core.engine.ExecutionEngine`
owns one and consults it for every point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..errors import (
    BuildError,
    InvalidValueError,
    OclcError,
    ReproError,
    TransientError,
)
from ..obs import metrics as obs_metrics
from .context import Context

if TYPE_CHECKING:  # pragma: no cover
    from ..devices.base import ExecutionPlan
    from ..oclc import CheckedProgram
    from .kernel import Kernel
    from .platform import Device

__all__ = ["Program", "BuildCache"]


def device_build(device: "Device", checked: "CheckedProgram") -> "ExecutionPlan":
    """``device``'s build of ``checked``; any failure is a :class:`BuildError`.

    The one wrapping of a device build, so a failed build raises the
    same error from :meth:`Program.build` as from a :class:`BuildCache`
    (the engine's, which the search's model tier shares).
    """
    try:
        return device.model.build(checked)
    except BuildError:
        raise
    except ReproError as exc:
        raise BuildError(
            f"build failed for {device.short_name}",
            device=device.short_name,
            log=str(exc),
        ) from exc


class BuildCache:
    """Content-addressed build artifacts for one engine.

    Front-end results are keyed by ``(source, effective defines)``. The
    cache holds every program it returned, and so keeps it in the weak
    process-wide :func:`repro.oclc.compile_source_cached` memo, where
    every other live cache finds it: a miss here compiles only if no
    live caller holds the program. Device plans are keyed by the same
    front-end key, which :meth:`frontend` computes once per request and
    :meth:`plan` looks up by program, plus the device, and are held
    here beside the programs as build outcomes (``("ok", plan)`` or
    ``("err", exc)``). Build *failures* are cached too — a sweep
    retrying an FPGA configuration that does not fit skips the
    re-estimation and re-raises the recorded :class:`BuildError`.

    Hits and misses are the ``build_cache.*`` counters of the active
    metrics registry. One instance per engine, used by the thread that
    runs the engine's points; each process-pool worker warms its own,
    and its counts reach the parent's registry through the telemetry
    relay (:mod:`repro.obs.relay`).
    """

    def __init__(self) -> None:
        self._checked: dict[tuple, "CheckedProgram"] = {}
        # id -> front-end key of each program in _checked, which holds
        # them all, so no id is reused while its entry lives
        self._keys: dict[int, tuple] = {}
        # (front-end key, device) -> ("ok", plan) or ("err", exception)
        self._plans: dict[tuple, tuple[str, object]] = {}

    # -- stages ------------------------------------------------------------------

    def frontend(
        self, source: str, defines: Mapping[str, str | int] | None
    ) -> "tuple[CheckedProgram, bool]":
        """Lex/parse/type-check ``source`` once per distinct key.

        Returns ``(checked, hit)``. Front-end *errors* are not cached
        (generated sources always compile; hand-written ones fail fast
        anyway).
        """
        from ..oclc import compile_source_cached, frontend_key

        key = frontend_key(source, defines)
        cached = self._checked.get(key)
        if cached is not None:
            obs_metrics.count("build_cache.frontend_hits")
            return cached, True
        obs_metrics.count("build_cache.frontend_misses")
        checked = compile_source_cached(
            source, {k: str(v) for k, v in (defines or {}).items()}, key=key
        )
        self._checked[key] = checked
        self._keys[id(checked)] = key
        return checked, False

    def plan(
        self, checked: "CheckedProgram", device: "Device"
    ) -> "tuple[ExecutionPlan, bool]":
        """:func:`device_build` once per ``(front-end key, device)`` pair.

        ``checked`` is a program :meth:`frontend` returned; its plan is
        keyed by the front-end key it was filed under. Returns ``(plan,
        hit)``; a cached failure re-raises the original exception (and
        counts as a hit — the expensive estimation was skipped).
        *Transient* failures (:class:`~repro.errors.TransientError` — a
        toolchain flake, not a design that does not fit) are never
        cached: the retry that follows must get a fresh build.
        """
        key = self._keys[id(checked)] + (device.short_name,)
        entry = self._plans.get(key)
        if entry is not None:
            obs_metrics.count("build_cache.plan_hits")
            status, payload = entry
            if status == "err":
                raise payload
            return payload, True
        obs_metrics.count("build_cache.plan_misses")
        try:
            plan = device_build(device, checked)
        except ReproError as exc:
            if not isinstance(exc, TransientError):
                self._plans[key] = ("err", exc)
            raise
        self._plans[key] = ("ok", plan)
        return plan, False


class Program:
    """An OpenCL program: source plus per-device build artifacts."""

    def __init__(self, context: Context, source: str):
        self.context = context
        self.source = source
        self.checked: "CheckedProgram | None" = None
        self._plans: dict[str, "ExecutionPlan"] = {}
        self._build_logs: dict[str, str] = {}
        self._defines: dict[str, str] = {}

    def build(
        self,
        defines: Mapping[str, str | int] | None = None,
        devices: "tuple[Device, ...] | None" = None,
    ) -> "Program":
        """Compile for the given (default: all context) devices.

        Raises :class:`~repro.errors.BuildError` with the offending
        device's build log on failure, like ``clBuildProgram``.
        """
        from ..oclc import compile_source

        if devices is None:
            devices = self.context.devices
        self._defines = {k: str(v) for k, v in (defines or {}).items()}
        try:
            self.checked = compile_source(self.source, self._defines)
        except OclcError as exc:
            raise BuildError(
                f"front-end error: {exc}", device="<front-end>", log=str(exc)
            ) from exc

        for device in devices:
            try:
                plan = device_build(device, self.checked)
            except BuildError as exc:
                self._build_logs[device.short_name] = exc.log
                raise
            self._plans[device.short_name] = plan
            self._build_logs[device.short_name] = plan.build_log
        return self

    @classmethod
    def from_artifacts(
        cls,
        context: Context,
        source: str,
        *,
        checked: "CheckedProgram",
        plans: "Mapping[str, ExecutionPlan]",
        defines: Mapping[str, str | int] | None = None,
    ) -> "Program":
        """Assemble an already-built Program from cached artifacts.

        The execution engine's path around :meth:`build`: stage results
        (front-end + per-device plans) come from a :class:`BuildCache`,
        and the Program is only the launchable wrapper the kernel and
        queue layers expect. ``plans`` maps device short names to plans.
        """
        program = cls(context, source)
        program.checked = checked
        program._defines = {k: str(v) for k, v in (defines or {}).items()}
        program._plans = dict(plans)
        program._build_logs = {
            name: plan.build_log for name, plan in plans.items()
        }
        return program

    # -- queries -----------------------------------------------------------------

    def build_log(self, device: "Device") -> str:
        """The device's build log (clGetProgramBuildInfo analogue)."""
        return self._build_logs.get(device.short_name, "")

    def plan_for(self, device: "Device") -> "ExecutionPlan":
        try:
            return self._plans[device.short_name]
        except KeyError:
            raise InvalidValueError(
                f"program was not built for device {device.short_name!r}"
            ) from None

    @property
    def defines(self) -> dict[str, str]:
        return dict(self._defines)

    def create_kernel(self, name: str) -> "Kernel":
        """Instantiate a kernel object for ``name``."""
        from .kernel import Kernel

        if self.checked is None:
            raise InvalidValueError("program must be built before creating kernels")
        return Kernel(self, name)

    def kernel_names(self) -> tuple[str, ...]:
        if self.checked is None:
            raise InvalidValueError("program must be built first")
        return tuple(f.name for f in self.checked.unit.functions if f.is_kernel)
