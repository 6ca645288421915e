"""GPU performance model (SIMT with warp coalescing).

Mechanisms:

1. **Warp coalescing** — the 32 lanes of a warp merge into aligned
   128-byte segment transactions. Unit-stride scalar streams are fully
   coalesced; a column-major walk gives one segment per lane, so only
   ``element/segment`` of every fetched byte is useful, collapsing the
   useful bandwidth to the *transaction-rate* limit (Fig 2).
2. **Latency hiding / occupancy** — sustained request bandwidth is
   (warps in flight × bytes in flight per warp) / memory latency.
   Register pressure grows with the vector width, cutting occupancy;
   wide vectors also split into replayed sub-transactions that consume
   issue slots. Together these give Fig 1b's GPU shape: a mild rise to
   width 4, then a fall at 16.
3. **L2 reuse** — strided streams whose column of lines fits the L2
   serve revisits at the L2's higher transaction rate (the mid-size
   strided bump in Fig 2).
4. **TLB** — strided walks beyond the translation reach degrade with
   footprint (the large-size strided tail in Fig 2).
5. **Single work-item kernels** run one thread whose dependent accesses
   are latency-bound — three orders of magnitude below NDRange (Fig 3).
"""

from __future__ import annotations

import math

from ..oclc import KernelIR, LoopMode
from .base import (
    AccessProfile,
    DeviceModel,
    ExecutionPlan,
    KernelTiming,
    Launch,
    profile_accesses,
)
from .specs import GpuSpec

__all__ = ["GpuModel"]

#: widest per-lane load the hardware issues in one transaction, bytes
_MAX_LANE_BYTES = 16
#: in-flight transactions one warp sustains (MSHR-like cap)
_WARP_MSHRS = 4
#: MLP loss when per-lane loads split into replayed sub-transactions
_SPLIT_SEQUENCE_PENALTY = 2.5


class GpuModel(DeviceModel):
    """Model of a discrete SIMT GPU."""

    spec: GpuSpec

    def __init__(self, spec: GpuSpec):
        super().__init__(spec)

    # -- build -------------------------------------------------------------------

    def plan(self, ir: KernelIR) -> ExecutionPlan:
        regs = self._regs_per_thread(ir)
        occ = self._occupancy(ir)
        notes = [
            f"gpu build of kernel {ir.name!r}: loop mode {ir.loop_mode}",
            f"registers/thread {regs}, theoretical occupancy {occ:.2f}",
        ]
        if ir.loop_mode is not LoopMode.NDRANGE:
            notes.append(
                "single work-item kernel: one thread, latency-bound "
                "(use an NDRange on GPU targets)"
            )
        return ExecutionPlan(ir=ir, build_log="\n".join(notes))

    def _regs_per_thread(self, ir: KernelIR) -> int:
        return self.spec.regs_base + self.spec.regs_per_lane * ir.vector_width

    def _occupancy(self, ir: KernelIR) -> float:
        spec = self.spec
        regs = self._regs_per_thread(ir)
        max_threads = spec.max_warps_per_sm * spec.warp_size
        occ = spec.registers_per_sm / (max_threads * regs)
        # Vector loads wider than the 16-byte hardware maximum are split
        # into replayed sub-transactions that must issue back-to-back
        # from one warp; only one split sequence is in flight per warp,
        # which cuts the effective memory-level parallelism sharply.
        lane_bytes = ir.vector_width * self._scalar_bytes(ir)
        replays = max(1, math.ceil(lane_bytes / _MAX_LANE_BYTES))
        occ = min(1.0, occ)
        if replays > 1:
            occ /= _SPLIT_SEQUENCE_PENALTY
        return occ

    @staticmethod
    def _scalar_bytes(ir: KernelIR) -> int:
        if not ir.accesses:
            return 4
        a = ir.accesses[0]
        return a.element_bytes // a.vector_width

    # -- timing -------------------------------------------------------------------

    def kernel_timing(self, plan: ExecutionPlan, launch: Launch) -> KernelTiming:
        ir = plan.ir
        spec = self.spec
        if ir.loop_mode is not LoopMode.NDRANGE and launch.work_items <= spec.warp_size:
            return self._single_thread_timing(plan, launch)

        profiles = profile_accesses(ir, launch, line_bytes=spec.l2.line_bytes)
        sustained = spec.stream_efficiency * spec.dram.peak_bandwidth
        dram_tx_rate = sustained / spec.segment_bytes
        l2_tx_rate = dram_tx_rate * spec.l2_bandwidth_factor

        total_useful = 0
        t_tx = 0.0  # transaction-rate-limited service time
        dram_fetched = 0.0
        for p in profiles:
            total_useful += p.useful_bytes
            seg = self._segments(p)
            dram_fetched += seg["dram_tx"] * spec.segment_bytes
            t_tx += seg["dram_tx"] / dram_tx_rate + seg["l2_tx"] / l2_tx_rate
            t_tx += seg["tlb_s"]

        t_dram_data = dram_fetched / sustained
        t_request = total_useful / self._request_bandwidth(ir)
        execution = max(t_tx, t_dram_data, t_request)
        return KernelTiming(
            launch_overhead_s=spec.launch_overhead_s,
            execution_s=execution,
            detail={
                "useful_bytes": total_useful,
                "dram_fetched_bytes": dram_fetched,
                "t_tx_s": t_tx,
                "t_dram_data_s": t_dram_data,
                "t_request_s": t_request,
                "occupancy": self._occupancy(ir),
            },
        )

    def _request_bandwidth(self, ir: KernelIR) -> float:
        """Latency-hiding limit: bytes in flight / memory latency."""
        spec = self.spec
        occ = self._occupancy(ir)
        lane_bytes = ir.vector_width * self._scalar_bytes(ir)
        warp_bytes = min(
            spec.warp_size * lane_bytes, _WARP_MSHRS * spec.segment_bytes
        )
        warps = spec.sm_count * spec.max_warps_per_sm * occ
        return warps * warp_bytes / spec.mem_latency_s

    def _segments(self, p: AccessProfile) -> dict:
        """Transactions one stream needs, split between DRAM and L2."""
        spec = self.spec
        seg = spec.segment_bytes
        n = p.n_accesses
        if p.pattern == "contiguous":
            # warp covers 32*element consecutive bytes -> minimal segments
            tx = n * p.element_bytes / seg
            return {"dram_tx": tx, "l2_tx": 0.0, "tlb_s": 0.0}

        # strided / irregular: one segment per access
        line = spec.l2.line_bytes
        revisits = max(1, (abs(p.stride_bytes) if p.stride_bytes else line) // p.element_bytes)
        reuse_fits = (
            p.reuse_window_bytes is not None
            and p.reuse_window_bytes <= spec.l2.effective_bytes
        )
        if reuse_fits:
            miss_fraction = 1.0 / min(revisits, line // p.element_bytes)
        else:
            miss_fraction = 1.0
        dram_tx = n * miss_fraction
        l2_tx = n * (1.0 - miss_fraction)

        tlb_s = 0.0
        stride = abs(p.stride_bytes) if p.stride_bytes else line
        if stride >= 4096 and p.footprint_bytes > spec.tlb_reach_bytes:
            # page-walk pressure grows with how far past the reach we are
            levels = math.log2(p.footprint_bytes / spec.tlb_reach_bytes)
            tlb_s = n * spec.tlb_miss_s * min(1.0, levels / 4.0)
        return {"dram_tx": dram_tx, "l2_tx": l2_tx, "tlb_s": tlb_s}

    def _single_thread_timing(self, plan: ExecutionPlan, launch: Launch) -> KernelTiming:
        """A for-loop kernel on one CUDA thread: dependent-latency bound."""
        ir = plan.ir
        spec = self.spec
        iters = ir.iterations_per_work_item() * max(1, launch.work_items)
        # one memory round trip per iteration (loads pipeline poorly from
        # a single thread; stores are fire-and-forget)
        execution = iters * spec.mem_latency_s
        return KernelTiming(
            launch_overhead_s=spec.launch_overhead_s,
            execution_s=execution,
            detail={"iterations": iters, "mode": "single-thread"},
        )

    # -- transfers -----------------------------------------------------------------

    def transfer_time(self, nbytes: int, direction: str) -> float:
        _ = direction
        return self.spec.pcie.transfer_time(nbytes)
