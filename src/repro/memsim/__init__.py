"""Memory-system building blocks the device models compose.

Every piece here is computed in closed form; nothing simulates an
address trace on a production path:

* :mod:`repro.memsim.cache` — cache-level geometry and its effective
  (conflict-free) capacity;
* :mod:`repro.memsim.dram` — DRAM channel/bank/row-buffer efficiency,
  plus :func:`simulate_dram`, the trace-driven reference the tests
  check :func:`row_locality_efficiency` against;
* :mod:`repro.memsim.controller` — multi-stream arbitration/contention;
* :mod:`repro.memsim.pcie` — the host↔device interconnect.
"""

from __future__ import annotations

from .cache import CacheConfig
from .controller import MemoryController, StreamDemand
from .dram import DramSpec, DramTiming, simulate_dram, row_locality_efficiency
from .pcie import PcieLink

__all__ = [
    "CacheConfig",
    "MemoryController",
    "StreamDemand",
    "DramSpec",
    "DramTiming",
    "simulate_dram",
    "row_locality_efficiency",
    "PcieLink",
]
