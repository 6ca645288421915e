"""Metamorphic invariants over the memory-model stack.

Pillar 2 of the verification subsystem. Individual bandwidth numbers
from a simulated device cannot be checked against silicon, but the
*relations between* numbers can be checked against physics: these are
executable property checks over the full engine path, in the spirit
of Zohouri & Matsuoka's trend validation of memory-interface models.
Each law compares pairs of grid points and, on breach, emits a
structured :class:`Violation` naming exactly which pair broke it — a
metamorphic failure is a modelling bug report, not a stack trace.

Laws:

``content_invariance``
    Reported kernel latency must not depend on array *contents* — the
    performance models see address streams, never values. Runs the same
    point twice through a real context/queue with STREAM-initial and
    randomized contents and demands identical latency sequences.
``contiguous_vs_strided``
    For the same footprint, contiguous access must sustain at least the
    bandwidth of strided access on every target (end-to-end through the
    engine).
``bytes_linear``
    Bytes moved must scale exactly linearly with array size at a fixed
    configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.generator import generate
from ..core.kernels import KERNELS, SCALAR_Q, initial_arrays
from ..core.params import AccessPattern, KernelName, TuningParameters
from ..core.runner import BenchmarkRunner, optimal_loop_for
from ..ocl import CommandQueue, Context, Program
from ..ocl.platform import find_device
from ..oclc import compile_source_cached
from ..rng import make_rng

__all__ = [
    "Violation",
    "LawReport",
    "check_content_invariance",
    "check_contiguous_vs_strided",
    "check_bytes_linear",
    "check_all",
]

ALL_TARGETS = ("cpu", "gpu", "aocl", "sdaccel")


@dataclass(frozen=True)
class Violation:
    """One broken law, naming the pair of grid points that broke it."""

    law: str
    left: str
    right: str
    left_value: float
    right_value: float
    detail: str = ""

    def describe(self) -> str:
        text = (
            f"{self.law}: {self.left} -> {self.left_value:g} "
            f"vs {self.right} -> {self.right_value:g}"
        )
        return f"{text} ({self.detail})" if self.detail else text


@dataclass(frozen=True)
class LawReport:
    """Outcome of checking one law over its grid."""

    law: str
    checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"{self.law}: {self.checked} pair(s) checked, {status}"


# -- raw device launches (bypassing the engine's fixed initial values) --------


def _device_latencies(
    target: str,
    params: TuningParameters,
    contents: dict[str, np.ndarray],
    *,
    ntimes: int,
) -> tuple[float, ...]:
    """Latency sequence of ``ntimes`` launches with given array contents."""
    device = find_device(target)
    ctx = Context(device)
    queue = CommandQueue(ctx, device)
    gen = generate(params)
    checked = compile_source_cached(
        gen.source, {k: str(v) for k, v in gen.defines.items()}
    )
    plan = device.model.build(checked)
    program = Program.from_artifacts(
        ctx,
        gen.source,
        checked=checked,
        plans={device.short_name: plan},
        defines=gen.defines,
    )
    kernel = program.create_kernel(gen.kernel_name)
    buffers = {}
    for name in ("a", "b", "c"):
        buffers[name] = ctx.create_buffer(hostbuf=contents[name])
        buffers[name].residency = "device"
    spec = KERNELS[params.kernel]
    named: dict[str, object] = {
        name: buffers[name] for name in (*spec.reads, spec.writes)
    }
    if spec.uses_scalar:
        named["q"] = SCALAR_Q
    kernel.set_args(**named)
    try:
        times = []
        for _ in range(ntimes):
            event = queue.enqueue_nd_range_kernel(
                kernel, gen.global_size, gen.local_size
            )
            times.append(event.latency)
    finally:
        for buffer in buffers.values():
            if not buffer.released:
                buffer.release()
        ctx.prune_released()
    return tuple(times)


def _random_contents(
    params: TuningParameters, seed: int
) -> dict[str, np.ndarray]:
    rng = make_rng(seed)
    dt = initial_arrays(1, params.dtype)["a"].dtype
    out = {}
    for name in ("a", "b", "c"):
        if dt.kind == "i":
            out[name] = rng.integers(-1000, 1000, params.word_count).astype(dt)
        else:
            out[name] = (rng.random(params.word_count) * 100 - 50).astype(dt)
    return out


def check_content_invariance(
    targets: Sequence[str] = ("cpu", "gpu"),
    *,
    array_bytes: int = 16384,
    ntimes: int = 3,
    seed: int = 123,
) -> LawReport:
    """Latencies must be identical whatever values the arrays hold."""
    violations = []
    checked = 0
    for target in targets:
        params = TuningParameters(
            kernel=KernelName.COPY,
            array_bytes=array_bytes,
            loop=optimal_loop_for(target),
        )
        baseline = _device_latencies(
            target,
            params,
            initial_arrays(params.word_count, params.dtype),
            ntimes=ntimes,
        )
        randomized = _device_latencies(
            target, params, _random_contents(params, seed), ntimes=ntimes
        )
        checked += 1
        if baseline != randomized:
            violations.append(
                Violation(
                    law="content_invariance",
                    left=f"{target} {params.describe()} [contents=stream-initial]",
                    right=f"{target} {params.describe()} [contents=random(seed={seed})]",
                    left_value=min(baseline),
                    right_value=min(randomized),
                    detail="latency sequences differ",
                )
            )
    return LawReport(
        law="content_invariance", checked=checked, violations=tuple(violations)
    )


def check_contiguous_vs_strided(
    targets: Sequence[str] = ALL_TARGETS,
    *,
    array_bytes: int = 65536,
    ntimes: int = 2,
) -> LawReport:
    """Contiguous access must not lose to strided at equal footprint."""
    violations = []
    checked = 0
    for target in targets:
        runner = BenchmarkRunner(target, ntimes=ntimes)
        base = TuningParameters(
            kernel=KernelName.COPY,
            array_bytes=array_bytes,
            loop=optimal_loop_for(target),
        )
        contiguous = runner.run(base.with_(pattern=AccessPattern.CONTIGUOUS))
        strided = runner.run(base.with_(pattern=AccessPattern.STRIDED))
        checked += 1
        if not (contiguous.ok and strided.ok):
            failed = contiguous if not contiguous.ok else strided
            violations.append(
                Violation(
                    law="contiguous_vs_strided",
                    left=f"{target} {contiguous.params.describe()}",
                    right=f"{target} {strided.params.describe()}",
                    left_value=contiguous.bandwidth_gbs,
                    right_value=strided.bandwidth_gbs,
                    detail=f"point failed: {failed.error}",
                )
            )
        elif contiguous.bandwidth_gbs < strided.bandwidth_gbs:
            violations.append(
                Violation(
                    law="contiguous_vs_strided",
                    left=f"{target} {contiguous.params.describe()}",
                    right=f"{target} {strided.params.describe()}",
                    left_value=contiguous.bandwidth_gbs,
                    right_value=strided.bandwidth_gbs,
                    detail="strided beat contiguous",
                )
            )
    return LawReport(
        law="contiguous_vs_strided", checked=checked, violations=tuple(violations)
    )


def check_bytes_linear(
    targets: Sequence[str] = ("cpu",),
    *,
    base_bytes: int = 16384,
    factors: Sequence[int] = (2, 4),
) -> LawReport:
    """Bytes moved must scale exactly linearly with array size."""
    violations = []
    checked = 0
    for target in targets:
        runner = BenchmarkRunner(target, ntimes=1)
        base = TuningParameters(
            kernel=KernelName.TRIAD,
            array_bytes=base_bytes,
            loop=optimal_loop_for(target),
        )
        reference = runner.run(base)
        for factor in factors:
            scaled = runner.run(base.with_(array_bytes=base_bytes * factor))
            checked += 1
            if scaled.moved_bytes != factor * reference.moved_bytes:
                violations.append(
                    Violation(
                        law="bytes_linear",
                        left=f"{target} {reference.params.describe()}",
                        right=f"{target} {scaled.params.describe()}",
                        left_value=float(reference.moved_bytes),
                        right_value=float(scaled.moved_bytes),
                        detail=f"expected exactly {factor}x the bytes",
                    )
                )
    return LawReport(
        law="bytes_linear", checked=checked, violations=tuple(violations)
    )


def check_all(*, quick: bool = False) -> list[LawReport]:
    """Run every law; ``quick`` restricts each to fewer targets."""
    engine_targets = ("cpu",) if quick else ALL_TARGETS
    content_targets = ("cpu",) if quick else ("cpu", "gpu")
    return [
        check_content_invariance(content_targets),
        check_contiguous_vs_strided(engine_targets),
        check_bytes_linear(("cpu",) if quick else ("cpu", "aocl")),
    ]
