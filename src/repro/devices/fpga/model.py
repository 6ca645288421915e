"""FPGA device model: pipeline issue vs memory service.

Execution time of a launch is the slower of

* the **pipeline**: innermost iterations through the synthesized
  pipeline at its II and fmax (plus fill and per-outer-iteration drain),
  divided across SIMD lanes and compute units; and
* the **memory system**: every access stream's transactions through the
  board's DRAM controller — long bursts for burst-capable LSUs (chopped
  ``compute_units`` ways by the arbiter), or per-element transactions
  with ``lsu_outstanding``-way latency overlap when bursts break.
"""

from __future__ import annotations

from ...oclc import KernelIR, LoopMode
from ..base import (
    AccessProfile,
    DeviceModel,
    ExecutionPlan,
    KernelTiming,
    Launch,
    domain_size,
    profile_accesses,
)
from ..specs import FpgaSpec
from .pipeline import PipelinePlan, synthesize

__all__ = ["FpgaModel"]

#: per-SIMD-lane issue-efficiency loss (dispatch bubbles, lane masking)
_SIMD_DISPATCH_PENALTY = 0.06


class FpgaModel(DeviceModel):
    """Shared model for OpenCL-programmed FPGA boards."""

    spec: FpgaSpec

    def __init__(self, spec: FpgaSpec):
        super().__init__(spec)

    # -- build -------------------------------------------------------------------

    def plan(self, ir: KernelIR) -> ExecutionPlan:
        pplan = synthesize(ir, self.spec)
        log = "\n".join(
            [
                f"fpga build of kernel {ir.name!r} for {self.spec.short_name}",
                f"loop mode {ir.loop_mode}, II={pplan.ii_cycles:.2f} cycles, "
                f"lanes={pplan.lanes}, simd={pplan.simd}, "
                f"compute_units={pplan.compute_units}",
                f"burst inference: {'yes' if pplan.bursts else 'NO'}",
                f"fmax {pplan.fmax_hz / 1e6:.1f} MHz",
                f"resources: {pplan.resources.summary()}",
            ]
        )
        return ExecutionPlan(
            ir=ir, build_log=log, payload=pplan, resources=pplan.resources
        )

    # -- timing -------------------------------------------------------------------

    def kernel_timing(self, plan: ExecutionPlan, launch: Launch) -> KernelTiming:
        ir = plan.ir
        pplan: PipelinePlan = plan.payload
        if pplan is None or pplan.mode is not ir.loop_mode:  # pragma: no cover
            pplan = synthesize(ir, self.spec)

        t_pipe = self._pipeline_time(ir, pplan, launch)
        profiles = profile_accesses(ir, launch)
        t_mem = self._memory_time(profiles, pplan)
        execution = max(t_pipe, t_mem)
        return KernelTiming(
            launch_overhead_s=self.spec.launch_overhead_s,
            execution_s=execution,
            detail={
                "t_pipeline_s": t_pipe,
                "t_memory_s": t_mem,
                "ii_cycles": pplan.ii_cycles,
                "fmax_hz": pplan.fmax_hz,
                "bursts": pplan.bursts,
                "compute_units": pplan.compute_units,
                "simd": pplan.simd,
                "resources": pplan.resources.summary(),
            },
        )

    def _pipeline_time(self, ir: KernelIR, pplan: PipelinePlan, launch: Launch) -> float:
        iters = domain_size(ir, launch)
        unroll = ir.unroll_factor if ir.loop_mode is not LoopMode.NDRANGE else 1
        # unrolling only raises throughput when the widened LSUs can
        # actually stream (bursts); a blocking LSU unrolled is still blocked
        effective_unroll = unroll if (pplan.bursts or unroll == 1) else 1
        # SIMD work-item dispatch inserts pipeline bubbles at work-group
        # boundaries and on masked lanes; returns diminish as N grows
        # (this is why the paper finds the vendor knob "less consistent")
        simd_penalty = 1.0 + _SIMD_DISPATCH_PENALTY * (pplan.simd - 1)
        issue = iters * pplan.ii_cycles * simd_penalty / (
            effective_unroll * pplan.simd * pplan.compute_units
        )
        fill = pplan.depth_cycles
        drain = 0.0
        if ir.loop_mode is LoopMode.NESTED and len(ir.loops) >= 2:
            outer_trips = 1
            for loop in ir.loops[:-1]:
                outer_trips *= loop.trip_count
            drain = outer_trips * pplan.drain_per_outer_cycles
        cycles = issue + fill + drain
        return cycles / pplan.fmax_hz

    def _memory_time(self, profiles: list[AccessProfile], pplan: PipelinePlan) -> float:
        dram = self.spec.dram
        total = 0.0
        write_bytes = sum(p.useful_bytes for p in profiles if p.is_write)
        read_bytes = sum(p.useful_bytes for p in profiles if not p.is_write)
        all_bytes = write_bytes + read_bytes
        # bus turnaround only matters when reads and writes genuinely
        # interleave; weight it by twice the minority share (a lone
        # 8-byte result store among megabytes of reads costs nothing)
        mix = (
            2.0 * min(write_bytes, read_bytes) / all_bytes if all_bytes else 0.0
        )
        turnaround = mix * dram.t_rw_turnaround / dram.rw_batch
        n_streams = len(profiles) * pplan.compute_units
        banks = dram.banks_per_channel * dram.channels
        conflict = max(0.0, (n_streams - banks) / n_streams) if n_streams > banks else 0.0
        for p in profiles:
            if pplan.bursts and p.pattern == "contiguous":
                # long bursts: every fetched byte is useful
                tx_bytes = max(
                    dram.min_transaction_bytes,
                    self.spec.max_burst_bytes // pplan.compute_units,
                )
                tx_per_row = max(1.0, dram.row_bytes / tx_bytes)
                hit = (tx_per_row - 1.0) / tx_per_row * (1.0 - conflict)
                overlap = min(banks, 2 * n_streams)
                n_tx = p.useful_bytes / tx_bytes
            else:
                # bursts broken: one transaction per element access, each
                # fetching a full minimum transaction for a few useful bytes
                tx_bytes = max(dram.min_transaction_bytes, p.element_bytes)
                stride = abs(p.stride_bytes) if p.stride_bytes else dram.row_bytes
                if stride < dram.row_bytes:
                    per_row = max(1.0, dram.row_bytes / stride)
                    hit = (per_row - 1.0) / per_row * (1.0 - conflict)
                else:
                    hit = 0.0
                overlap = min(banks, self.spec.lsu_outstanding)
                n_tx = float(p.n_accesses)
            t_data = tx_bytes / dram.peak_bandwidth
            t_cmd = ((1.0 - hit) * dram.t_row_miss + hit * dram.t_row_hit) / overlap
            per_tx = max(t_data, t_cmd) + turnaround
            total += n_tx * per_tx
        return total

    # -- transfers -----------------------------------------------------------------

    def transfer_time(self, nbytes: int, direction: str) -> float:
        _ = direction
        return self.spec.pcie.transfer_time(nbytes)
