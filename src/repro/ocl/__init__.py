"""An OpenCL-like host runtime built from scratch.

Mirrors the object model of the Khronos OpenCL 1.2 host API closely
enough that the MP-STREAM host code reads like real OpenCL host code:

    Platform -> Device -> Context -> CommandQueue
    Program(source) -> build(device) -> Kernel -> enqueue_nd_range
    Buffer, enqueue_read/write, Event profiling timestamps

Devices execute *functionally* through the whole-NDRange array lane or,
for kernels it refuses, the OpenCL-C interpreter, while their *timing*
comes from the attached performance model (:mod:`repro.devices`). Event
profiling info reports the model's virtual time, which is what the
benchmark measures.
"""

from __future__ import annotations

from .buffer import Buffer, MemFlags
from .context import Context
from .events import CommandType, Event
from .platform import Device, Platform, get_platforms
from .program import Program
from .kernel import Kernel
from .queue import CommandQueue

__all__ = [
    "Platform",
    "Device",
    "get_platforms",
    "Context",
    "CommandQueue",
    "Buffer",
    "MemFlags",
    "Program",
    "Kernel",
    "Event",
    "CommandType",
]
