"""HLS pipeline synthesis model.

Translates an analyzed kernel plus vendor rules into a
:class:`PipelinePlan`: the initiation interval (II) of the innermost
issue unit, fill/drain depths, data lanes per issue, and whether each
toolchain's load/store units will emit DRAM bursts.

The vendor behaviours that produce the paper's Fig 3:

* **AOCL** pipelines everything: single-work-item loops run at II=1
  with burst-coalescing LSUs; NDRange work-items also pipeline, at II=1
  when ``reqd_work_group_size`` lets the compiler specialize the
  dispatch, at a multi-cycle II otherwise.
* **SDAccel 2015.1** infers bursts only on the *inner loop of a nested
  nest* (the paper's surprising nested-loop win). A flat loop issues
  blocking line-buffered accesses; NDRange work-items execute one at a
  time at full kernel latency unless ``xcl_pipeline_workitems`` is on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...oclc import KernelIR, LoopMode
from ..specs import FpgaSpec
from .fmax import estimate_fmax
from .resources import ResourceReport, estimate_resources

__all__ = ["PipelinePlan", "synthesize"]


@dataclass(frozen=True)
class PipelinePlan:
    """The synthesized shape of one kernel configuration."""

    mode: LoopMode
    #: cycles between successive innermost iterations (or work-items)
    ii_cycles: float
    #: one-time pipeline fill cost
    depth_cycles: int
    #: extra drain cycles paid per outer-loop iteration (nested nests)
    drain_per_outer_cycles: float
    #: data lanes per issue (vector width x unroll), excluding SIMD
    lanes: int
    simd: int
    compute_units: int
    #: whether the LSUs emit DRAM bursts for contiguous streams
    bursts: bool
    fmax_hz: float
    resources: ResourceReport


def synthesize(ir: KernelIR, spec: FpgaSpec) -> PipelinePlan:
    """Derive the pipeline plan of ``ir`` on an FPGA target."""
    simd = max(1, ir.attributes.get("num_simd_work_items", (1,))[0])
    compute_units = max(1, ir.attributes.get("num_compute_units", (1,))[0])
    has_reqd_wg = "reqd_work_group_size" in ir.attributes
    if simd > 1 and not has_reqd_wg:
        # AOCL refuses SIMD without a fixed work-group size; degrade
        # gracefully the way the offline compiler reports it.
        simd = 1
    if ir.loop_mode is not LoopMode.NDRANGE:
        simd = 1

    unroll = ir.unroll_factor if ir.loop_mode is not LoopMode.NDRANGE else 1
    lanes = ir.vector_width * unroll

    resources = estimate_resources(
        ir,
        spec,
        vector_width=ir.vector_width,
        simd=simd,
        compute_units=compute_units,
        unroll=unroll,
    ).check(f"kernel {ir.name!r}")
    fmax = estimate_fmax(spec, resources)

    contiguous = _innermost_contiguous(ir)
    bursts = _bursts_inferred(ir, spec, contiguous)
    ii = _initiation_interval(ir, spec, bursts, contiguous)
    drain = (
        spec.pipeline_depth_cycles / 4.0
        if ir.loop_mode is LoopMode.NESTED
        else 0.0
    )
    return PipelinePlan(
        mode=ir.loop_mode,
        ii_cycles=ii,
        depth_cycles=spec.pipeline_depth_cycles,
        drain_per_outer_cycles=drain,
        lanes=lanes,
        simd=simd,
        compute_units=compute_units,
        bursts=bursts,
        fmax_hz=fmax,
        resources=resources,
    )


def _innermost_contiguous(ir: KernelIR) -> bool:
    """Every *iterating* access advances unit-stride with the innermost
    variable; loop-invariant accesses (e.g. a reduction's final store)
    don't disturb burst inference for the streams that do iterate."""
    inner_var = ir.loops[-1].var if ir.loops else "gid0"
    inner_depth = len(ir.loops)
    saw_stream = False
    for access in ir.accesses:
        if not access.affine.is_affine:
            return False
        stride = access.affine.stride_of(inner_var)
        if access.depth < inner_depth or stride == 0:
            continue  # invariant under the innermost loop
        if stride != 1:
            return False
        saw_stream = True
    return saw_stream


def _bursts_inferred(ir: KernelIR, spec: FpgaSpec, contiguous: bool) -> bool:
    if not contiguous:
        return False
    if ir.loop_mode is LoopMode.NDRANGE:
        # coalescing across work-items needs pipelined work-item issue
        return spec.pipelined_workitems
    if ir.loop_mode is LoopMode.FLAT:
        if spec.flat_loop_bursts:
            return True
        # SDAccel-style: an explicit pipeline attribute recovers bursts
        return "xcl_pipeline_loop" in ir.attributes
    # nested: both toolchains infer bursts on the inner loop
    return True


def _initiation_interval(
    ir: KernelIR, spec: FpgaSpec, bursts: bool, contiguous: bool
) -> float:
    if ir.loop_mode is LoopMode.NDRANGE:
        if spec.pipelined_workitems:
            if "reqd_work_group_size" in ir.attributes:
                return 1.0
            return float(spec.workitem_latency_cycles)
        if "xcl_pipeline_workitems" in ir.attributes:
            return 2.0
        return float(spec.workitem_latency_cycles)
    # counted loops
    if bursts or spec.lsu_outstanding > 1:
        # non-blocking LSUs keep the loop at II=1; memory service time is
        # accounted separately by the model and bounds throughput there.
        return 1.0
    # blocking LSU (SDAccel without burst inference): each access stalls
    # the pipeline; contiguous streams amortize through the line buffer.
    line = 64
    ii = 0.0
    for access in ir.accesses:
        if contiguous:
            ii += spec.blocking_access_cycles * min(
                1.0, access.element_bytes / line
            )
        else:
            ii += float(spec.blocking_access_cycles)
    return max(1.0, ii)
