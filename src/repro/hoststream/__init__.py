"""A real STREAM measurement of the host running this reproduction.

Everything else in this package simulates the paper's 2018 targets; this
module keeps one leg on real silicon: a numpy implementation of the four
STREAM kernels, timed with the same min-of-N discipline as stream.c, so
users can sanity-check the simulated numbers against a live machine.
"""

from __future__ import annotations

from .stream import (
    HostStreamResult,
    checktick,
    classic_report,
    expected_scalars,
    run_host_stream,
)

__all__ = [
    "HostStreamResult",
    "run_host_stream",
    "checktick",
    "classic_report",
    "expected_scalars",
]
