"""Altera/Intel AOCL target model.

A thin specialization of :class:`~repro.devices.fpga.model.FpgaModel`:
AOCL's distinguishing behaviours (burst-coalescing LSUs, pipelined
work-items, the ``num_simd_work_items`` / ``num_compute_units``
attributes) are all expressed in the :class:`~repro.devices.specs.FpgaSpec`
flags and the kernel attributes; this class adds the vendor-specific
build-log diagnostics the AOCL offline compiler is known for.
"""

from __future__ import annotations

from ...oclc import KernelIR, LoopMode
from ..base import ExecutionPlan
from ..specs import STRATIX_V_AOCL, FpgaSpec
from .model import FpgaModel

__all__ = ["AoclModel"]


class AoclModel(FpgaModel):
    """Altera SDK for OpenCL (AOCL 15.1) on a Stratix V board."""

    def __init__(self, spec: FpgaSpec = STRATIX_V_AOCL):
        super().__init__(spec)

    def plan(self, ir: KernelIR) -> ExecutionPlan:
        plan = super().plan(ir)
        notes = [plan.build_log]
        simd = ir.attributes.get("num_simd_work_items", (1,))[0]
        if simd > 1 and "reqd_work_group_size" not in ir.attributes:
            notes.append(
                "warning: num_simd_work_items requires reqd_work_group_size; "
                "attribute ignored (matches aoc behaviour)"
            )
        if ir.loop_mode is LoopMode.NDRANGE and "reqd_work_group_size" not in ir.attributes:
            notes.append(
                "note: NDRange kernel without reqd_work_group_size pipelines "
                "work-items at a multi-cycle initiation interval"
            )
        if ir.loop_mode is not LoopMode.NDRANGE:
            notes.append("note: single work-item kernel; loop pipelining applied")
        plan.build_log = "\n".join(notes)
        return plan
