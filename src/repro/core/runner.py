"""The benchmark runner: the name callers build points through.

:class:`BenchmarkRunner` *is* :class:`~repro.core.engine.ExecutionEngine`
(the staged, cached pipeline that measures each point the way stream.c
does); the name stays because scripts, examples and the README construct
runners by it. :func:`optimal_loop_for` names each target's preferred
loop management.
"""

from __future__ import annotations

from ..ocl.platform import Device
from .engine import ExecutionEngine
from .params import LoopManagement

__all__ = ["BenchmarkRunner", "optimal_loop_for"]

BenchmarkRunner = ExecutionEngine


def optimal_loop_for(device: Device | str) -> LoopManagement:
    """The loop management each target prefers (the paper's Fig 3 winners)."""
    short = device if isinstance(device, str) else device.short_name
    return {
        "cpu": LoopManagement.NDRANGE,
        "gpu": LoopManagement.NDRANGE,
        "aocl": LoopManagement.FLAT,
        "sdaccel": LoopManagement.NESTED,
    }.get(short, LoopManagement.NDRANGE)
