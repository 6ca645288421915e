"""Device performance models for the paper's four targets."""

from __future__ import annotations

from .base import (
    AccessProfile,
    DeviceModel,
    ExecutionPlan,
    KernelTiming,
    Launch,
    profile_accesses,
)
from .cpu import CpuModel
from .energy import ENERGY_SPECS, EnergyReport, EnergySpec, energy_report
from .fpga import AoclModel, FpgaModel, SdaccelModel
from .gpu import GpuModel
from .specs import (
    GTX_TITAN_BLACK,
    PAPER_TARGETS,
    STRATIX_V_AOCL,
    VIRTEX7_SDACCEL,
    XEON_E5_2609V2,
    CpuSpec,
    DeviceSpec,
    FpgaSpec,
    GpuSpec,
)

__all__ = [
    "DeviceModel",
    "Launch",
    "KernelTiming",
    "ExecutionPlan",
    "AccessProfile",
    "profile_accesses",
    "CpuModel",
    "EnergySpec",
    "EnergyReport",
    "ENERGY_SPECS",
    "energy_report",
    "GpuModel",
    "FpgaModel",
    "AoclModel",
    "SdaccelModel",
    "DeviceSpec",
    "CpuSpec",
    "GpuSpec",
    "FpgaSpec",
    "XEON_E5_2609V2",
    "GTX_TITAN_BLACK",
    "STRATIX_V_AOCL",
    "VIRTEX7_SDACCEL",
    "PAPER_TARGETS",
    "paper_device_models",
    "model_for_spec",
]


def model_for_spec(spec: DeviceSpec) -> DeviceModel:
    """Instantiate the right model class for a spec."""
    if isinstance(spec, CpuSpec):
        return CpuModel(spec)
    if isinstance(spec, GpuSpec):
        return GpuModel(spec)
    if isinstance(spec, FpgaSpec):
        if spec.vendor.lower().startswith("altera") or spec.vendor.lower().startswith(
            "intel"
        ):
            return AoclModel(spec)
        return SdaccelModel(spec)
    raise TypeError(f"no model for spec type {type(spec).__name__}")


def paper_device_models() -> list[tuple[str, str, list[DeviceModel]]]:
    """The simulated ICD view: (platform name, vendor, device models)."""
    return [
        ("Intel(R) OpenCL", "Intel", [CpuModel(XEON_E5_2609V2)]),
        ("NVIDIA CUDA", "NVIDIA", [GpuModel(GTX_TITAN_BLACK)]),
        ("Altera SDK for OpenCL", "Altera", [AoclModel(STRATIX_V_AOCL)]),
        ("Xilinx SDAccel", "Xilinx", [SdaccelModel(VIRTEX7_SDACCEL)]),
    ]
