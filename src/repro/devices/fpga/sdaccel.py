"""Xilinx SDAccel target model.

The 2015.1-era behaviours the paper observed are carried by the spec
flags (``flat_loop_bursts=False``, ``pipelined_workitems=False``) and
the ``xcl_*`` kernel attributes; this class adds the vendor build-log
diagnostics, including the burst-inference report that explains the
paper's nested-loop anomaly.
"""

from __future__ import annotations

from ...oclc import KernelIR, LoopMode
from ..base import ExecutionPlan
from ..specs import VIRTEX7_SDACCEL, FpgaSpec
from .model import FpgaModel

__all__ = ["SdaccelModel"]


class SdaccelModel(FpgaModel):
    """Xilinx SDAccel 2015.1 on a Virtex-7 board."""

    def __init__(self, spec: FpgaSpec = VIRTEX7_SDACCEL):
        super().__init__(spec)

    def plan(self, ir: KernelIR) -> ExecutionPlan:
        plan = super().plan(ir)
        notes = [plan.build_log]
        if ir.loop_mode is LoopMode.FLAT and "xcl_pipeline_loop" not in ir.attributes:
            notes.append(
                "warning: no burst access inferred on the flat loop; "
                "accesses issue through a blocking line buffer "
                "(a nested 2-D loop or xcl_pipeline_loop enables bursts)"
            )
        if ir.loop_mode is LoopMode.NESTED:
            notes.append("note: burst access inferred on the inner loop")
        if ir.loop_mode is LoopMode.NDRANGE and "xcl_pipeline_workitems" not in ir.attributes:
            notes.append(
                "warning: work-items execute sequentially at full kernel "
                "latency; consider xcl_pipeline_workitems"
            )
        plan.build_log = "\n".join(notes)
        return plan
