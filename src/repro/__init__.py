"""MP-STREAM reproduction.

A from-scratch reproduction of *MP-STREAM: A Memory Performance
Benchmark for Design Space Exploration on Heterogeneous HPC Devices*
(Nabi & Vanderbauwhede, RAW @ IPDPS 2018), built on a simulated
heterogeneous OpenCL stack:

* :mod:`repro.core` — the benchmark: tuning parameters, kernel
  generation, runner, sweeps, reporting;
* :mod:`repro.ocl` — an OpenCL-like host runtime (platforms, queues,
  buffers, events with profiling);
* :mod:`repro.oclc` — an OpenCL-C subset compiler front-end with a
  reference interpreter and a vectorized executor;
* :mod:`repro.devices` — calibrated performance models of the paper's
  four targets (Xeon CPU, Titan Black GPU, Stratix V via AOCL,
  Virtex-7 via SDAccel);
* :mod:`repro.memsim` — closed-form cache / DRAM / controller / PCIe
  building blocks;
* :mod:`repro.figures` — one function per paper figure;
* :mod:`repro.hoststream` — a real numpy STREAM for the local machine.
"""

from __future__ import annotations

from .core import (
    AccessPattern,
    BenchmarkRunner,
    BuildCache,
    DataType,
    ExecutionEngine,
    KernelName,
    LoopManagement,
    ParameterSweep,
    ResultSet,
    RunResult,
    StreamLocus,
    TuningParameters,
    best_configuration,
    explore,
    generate,
    optimal_loop_for,
)
from .errors import ReproError
from .ocl.platform import Device, Platform, find_device, get_platforms

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "TuningParameters",
    "KernelName",
    "DataType",
    "AccessPattern",
    "LoopManagement",
    "StreamLocus",
    "BenchmarkRunner",
    "ExecutionEngine",
    "BuildCache",
    "RunResult",
    "ResultSet",
    "ParameterSweep",
    "explore",
    "best_configuration",
    "generate",
    "optimal_loop_for",
    "get_platforms",
    "find_device",
    "Platform",
    "Device",
    "ReproError",
]
