"""Shared device-model interfaces.

A :class:`DeviceModel` is the simulated analogue of "vendor driver +
silicon": it *builds* a checked program into an :class:`ExecutionPlan`
(the offline-compile step, where FPGA models also do resource
estimation and can fail like a real place-and-route), and *times*
launches of that plan.

:func:`profile_accesses` is the bridge from the compiler front-end to
the memory models: it reduces each static access site of a kernel to an
:class:`AccessProfile` — how many accesses the launch performs, at what
byte stride, over what footprint, and with what line-reuse window — the
quantities every target's bandwidth mechanism is written in terms of.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from ..errors import DeviceModelError
from ..oclc import CheckedProgram, KernelIR, LoopMode, analyze
from ..oclc.analysis import MemAccess, sampled_stride

__all__ = [
    "Launch",
    "KernelTiming",
    "ExecutionPlan",
    "AccessProfile",
    "DeviceModel",
    "profile_accesses",
    "access_count",
    "domain_size",
]


@dataclass(frozen=True)
class Launch:
    """One kernel launch as the performance model sees it."""

    global_size: tuple[int, ...]
    local_size: Optional[tuple[int, ...]] = None
    buffer_bytes: Mapping[str, int] = field(default_factory=dict)

    @property
    def work_items(self) -> int:
        return int(np.prod(self.global_size))


@dataclass(frozen=True)
class KernelTiming:
    """Model output for one launch."""

    launch_overhead_s: float
    execution_s: float
    detail: dict[str, object] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.launch_overhead_s + self.execution_s


@dataclass
class ExecutionPlan:
    """A built kernel: IR plus device-specific planning payload."""

    ir: KernelIR
    build_log: str = ""
    payload: Any = None
    #: FPGA models attach a resource report; None elsewhere
    resources: Optional[object] = None


@dataclass(frozen=True)
class AccessProfile:
    """One access site, concretized for a specific launch.

    ``stride_bytes`` is the dominant byte distance between consecutive
    accesses of this stream (None if no dominant stride exists).
    ``reuse_window_bytes`` is how much cache it takes to still hold a
    line when the stream comes back to it (None when each line is
    touched in one contiguous burst, i.e. no far reuse).
    """

    param: str
    is_write: bool
    element_bytes: int
    n_accesses: int
    stride_bytes: Optional[int]
    footprint_bytes: int
    reuse_window_bytes: Optional[int] = None

    @property
    def pattern(self) -> str:
        if self.stride_bytes is None:
            return "irregular"
        if abs(self.stride_bytes) == self.element_bytes:
            return "contiguous"
        return "strided"

    @property
    def useful_bytes(self) -> int:
        return self.n_accesses * self.element_bytes


def domain_size(ir: KernelIR, launch: Launch) -> int:
    """Total innermost iterations the launch executes (all work-items)."""
    per_item = ir.iterations_per_work_item()
    if ir.loop_mode is LoopMode.NDRANGE or ir.gid_vars:
        return launch.work_items * per_item
    return per_item


def access_count(ir: KernelIR, access: MemAccess, launch: Launch) -> int:
    """How many times one access site executes under ``launch``.

    An access at loop depth ``d`` runs once per iteration of its
    *enclosing* loops only — a reduction's epilogue store (depth 0)
    executes once per work-item, not once per inner iteration.
    """
    n = 1
    for loop in ir.loops[: access.depth]:
        n *= loop.trip_count
    if ir.loop_mode is LoopMode.NDRANGE or ir.gid_vars:
        n *= launch.work_items
    return n


def profile_accesses(
    ir: KernelIR, launch: Launch, *, line_bytes: int = 64
) -> list[AccessProfile]:
    """Concretize each access site of ``ir`` for ``launch``."""
    profiles: list[AccessProfile] = []
    for access in ir.accesses:
        n = access_count(ir, access, launch)
        footprint = int(launch.buffer_bytes.get(access.param, 0))
        stride = _dominant_stride(ir, access, launch)
        stride_bytes = None if stride is None else stride * access.element_bytes
        reuse = _reuse_window(stride_bytes, access.element_bytes, footprint, line_bytes)
        profiles.append(
            AccessProfile(
                param=access.param,
                is_write=access.is_write,
                element_bytes=access.element_bytes,
                n_accesses=n,
                stride_bytes=stride_bytes,
                footprint_bytes=footprint,
                reuse_window_bytes=reuse,
            )
        )
    return profiles


def _dominant_stride(
    ir: KernelIR, access: MemAccess, launch: Launch
) -> Optional[int]:
    """Element stride between consecutive accesses (mode of the diffs)."""
    if access.affine.is_affine:
        return _affine_inner_stride(ir, access)
    return sampled_stride(ir, access, launch.work_items)


def _affine_inner_stride(ir: KernelIR, access: MemAccess) -> Optional[int]:
    # innermost loop with a nonzero coefficient drives consecutive accesses
    for loop in reversed(ir.loops):
        coeff = access.affine.stride_of(loop.var)
        if coeff:
            # only the innermost *iterating* variable matters; if an inner
            # loop has zero coefficient the access repeats (stride 0)
            if loop is ir.loops[-1]:
                return coeff
            # access is invariant in deeper loops -> repeats each iteration
            inner_have_zero = all(
                access.affine.stride_of(inner.var) == 0
                for inner in ir.loops[ir.loops.index(loop) + 1 :]
            )
            return 0 if inner_have_zero else coeff
    return access.affine.stride_of("gid0") if "gid0" in access.affine.coeffs else 0


def _reuse_window(
    stride_bytes: Optional[int],
    element_bytes: int,
    footprint_bytes: int,
    line_bytes: int,
) -> Optional[int]:
    """Cache needed to catch the comeback of a strided stream's lines.

    A column-major walk (stride S over footprint F) touches F/S distinct
    lines per column and revisits each after a full column; holding a
    column of lines (``F/S * line``) converts the revisits to hits.
    Contiguous streams have no far reuse.
    """
    if stride_bytes is None or footprint_bytes <= 0:
        return None
    s = abs(stride_bytes)
    if s <= element_bytes or s < line_bytes:
        return None
    column_length = max(1, footprint_bytes // s)
    return column_length * line_bytes


class DeviceModel(abc.ABC):
    """Abstract performance model of one target device."""

    def __init__(self, spec: "object"):
        self.spec = spec

    # -- build -------------------------------------------------------------------

    def build(self, checked: CheckedProgram) -> ExecutionPlan:
        """Build the *first* kernel of the program (others via plan_for_kernel).

        A build is a function of the checked program and the device
        alone: every tuning knob, ``-D`` defines included, reached the
        program through the front end.
        """
        kernels = [f.name for f in checked.unit.functions if f.is_kernel]
        if not kernels:
            raise DeviceModelError("program contains no kernels")
        return self.plan(analyze(checked, kernels[0]))

    def plan_for_kernel(self, plan: ExecutionPlan, kernel_name: str) -> ExecutionPlan:
        """Derive a plan for a sibling kernel in the same program."""
        return self.plan(analyze(plan.ir.program, kernel_name))

    @abc.abstractmethod
    def plan(self, ir: KernelIR) -> ExecutionPlan:
        """Device-specific compile of an analyzed kernel."""

    # -- timing -------------------------------------------------------------------

    @abc.abstractmethod
    def kernel_timing(self, plan: ExecutionPlan, launch: Launch) -> KernelTiming:
        """Time one launch of a built kernel."""

    def score_launch(self, plan: ExecutionPlan, launch: Launch) -> float:
        """Modelled seconds for one launch — the low-fidelity score.

        Pure analytic prediction: nothing is executed, no arrays exist.
        The multi-fidelity searcher ranks the whole candidate pool with
        this before spending any measured evaluations.
        """
        return self.kernel_timing(plan, launch).total_s

    @abc.abstractmethod
    def transfer_time(self, nbytes: int, direction: str) -> float:
        """Host<->device transfer time ("h2d" or "d2h")."""

    def copy_time(self, nbytes: int) -> float:
        """Device-internal buffer copy (read + write through DRAM)."""
        peak = self.spec.peak_bandwidth_gbs * 1e9  # type: ignore[attr-defined]
        return 2.0 * nbytes / (0.8 * peak)
