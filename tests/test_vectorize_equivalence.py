"""Differential gate for the whole-NDRange vectorized execution lane.

One kernel semantics, two drivers: the work-item interpreter
(``repro.oclc.interp``, the oracle) and the vectorized whole-array lane
(``repro.oclc.vectorize``). The acceptance criterion throughout this
file is *bitwise* identity — ``output_checksum`` hashes raw array
bytes and :meth:`RunResult.fingerprint` hashes the full result row —
never tolerance-based closeness. The array lane either produces the
exact same bits as the interpreter (directly, or through the
interpreter checksums the golden corpus pins) or it must refuse the
kernel with :class:`UnsupportedKernelError`, which the queue turns into
a silent per-kernel fallback to the interpreter; silent divergence is
the one outcome these tests exist to make impossible.

Covers: the full 13-variant conformance grid x 4 kernels x 3 dtypes,
ragged tails (sizes that leave unroll/nested-loop remainders), the
engine's one functional run per point, the queue's fallback to the
interpreter, hypothesis fuzzing with greedy shrinking, golden-corpus
pinning, and the ``vectorize`` fault site's negative path on both
scheduler backends.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import explore
from repro.core import engine as engine_mod
from repro.core.engine import ExecutionEngine
from repro.core.generator import generate
from repro.core.history import point_fingerprint
from repro.core.kernels import KERNELS, SCALAR_Q, initial_arrays
from repro.core.params import (
    AccessPattern,
    DataType,
    KernelName,
    LoopManagement,
    TuningParameters,
)
from repro.core.runner import BenchmarkRunner
from repro.core.scheduler import CampaignScheduler
from repro.core.sweep import ParameterSweep
from repro.errors import InterpError, UnsupportedKernelError
from repro.faults import FAULT_SITES, FaultPlan, FaultSpec
from repro.obs import metrics as obs_metrics
from repro.ocl import CommandQueue, Context, Program
from repro.ocl.platform import find_device
from repro.oclc import (
    analyze,
    compile_source,
    compile_source_cached,
    run_kernel,
    vectorize_kernel,
)
from repro.oclc.interp import BufferArg
from repro.verify.conformance import (
    _VARIANT_AXES,
    interpret_point,
    output_checksum,
    random_point,
    shrink_failure,
    variant_grid,
)
from repro.verify.golden import DEFAULT_GOLDEN_PATH, corpus_grid, load_corpus
from repro.units import KIB

ARRAY_BYTES = 4096
ALL_KERNELS = tuple(KernelName)
ALL_DTYPES = tuple(DataType)


def _run_lane(params: TuningParameters, factory) -> dict[str, np.ndarray]:
    """Run one point through a driver factory on fresh STREAM arrays."""
    gen = generate(params)
    checked = compile_source_cached(
        gen.source, {k: str(v) for k, v in gen.defines.items()}
    )
    initial = initial_arrays(params.word_count, params.dtype)
    arrays = {name: initial[name].copy() for name in ("a", "b", "c")}
    spec = KERNELS[params.kernel]
    call = {name: BufferArg(arrays[name]) for name in (*spec.reads, spec.writes)}
    if spec.uses_scalar:
        call["q"] = SCALAR_Q
    factory(checked, gen.kernel_name).run(gen.global_size, call, gen.local_size)
    return arrays


def _checksum(params: TuningParameters, factory) -> str:
    return output_checksum(_run_lane(params, factory))


def _oracle(params: TuningParameters) -> str:
    return output_checksum(interpret_point(params))


# -- full conformance grid: vectorized == interpreter, bit for bit ------------


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.value)
@pytest.mark.parametrize("dtype", ALL_DTYPES, ids=lambda d: d.value)
def test_vectorized_matches_interpreter_full_grid(kernel, dtype):
    """Every conformance variant vectorizes — no fallback — bit-exactly."""
    points = variant_grid(kernel, dtype, ARRAY_BYTES)
    assert len(points) == len(_VARIANT_AXES)
    for params in points:
        # the conformance grid is the supported envelope: a refusal
        # here is a regression in the eligibility gate, not a fallback
        got = _checksum(params, vectorize_kernel)
        assert got == _oracle(params), params.describe()


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.value)
def test_vectorized_matches_interpreter_subset(kernel):
    """A quick representative slice of the grid against the interpreter."""
    for dtype in (DataType.INT, DataType.DOUBLE):
        for params in variant_grid(kernel, dtype, ARRAY_BYTES)[::4]:
            got = _checksum(params, vectorize_kernel)
            assert got == _oracle(params), params.describe()


# -- ragged tails -------------------------------------------------------------

#: sizes chosen so the generated loops carry remainders: unroll factors
#: that do not divide the trip count, nested loops over awkward totals,
#: strided re-indexing, and an odd element count at width 8
RAGGED_VARIANTS = (
    dict(array_bytes=1020, loop=LoopManagement.FLAT, unroll=4),
    dict(array_bytes=1008, vector_width=4, loop=LoopManagement.FLAT, unroll=2),
    dict(array_bytes=1016, vector_width=2, loop=LoopManagement.NESTED),
    dict(array_bytes=1012, loop=LoopManagement.NESTED, unroll=2),
    dict(array_bytes=1020, pattern=AccessPattern.STRIDED, loop=LoopManagement.FLAT),
    dict(
        array_bytes=1056,
        vector_width=8,
        use_vload=True,
        loop=LoopManagement.NDRANGE,
    ),
)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.value)
def test_ragged_tails_bit_identical(kernel):
    for changes in RAGGED_VARIANTS:
        params = TuningParameters(
            kernel=kernel, dtype=DataType.FLOAT, **changes
        )
        got = _checksum(params, vectorize_kernel)
        assert got == _oracle(params), params.describe()


# -- engine + scheduler integration -------------------------------------------

def _engine(**kw) -> ExecutionEngine:
    kw.setdefault("ntimes", 2)
    return ExecutionEngine("cpu", **kw)


def _refuse_array_lane(monkeypatch) -> None:
    """Make every array-lane build refuse, as an ineligible kernel does."""

    def refuse(program, kernel_name=None):
        raise UnsupportedKernelError("array lane refused by the test")

    monkeypatch.setattr("repro.oclc.vectorize.vectorize_kernel", refuse)


class TestEngineLanes:
    def test_fingerprints_identical_across_exec_lanes(self, monkeypatch):
        params = TuningParameters(array_bytes=64 * KIB, vector_width=4)
        default = _engine().run(params).fingerprint()
        _refuse_array_lane(monkeypatch)
        reg = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(reg):
            fallback = _engine().run(params).fingerprint()
        assert fallback == default
        counters = reg.snapshot()["counters"]
        assert counters.get("fastpath.runs.interpreted", 0) > 0
        assert "fastpath.runs.vectorized" not in counters

    def test_run_batch_degrades_when_array_lane_refuses(self, monkeypatch):
        # a batch of points run through the scheduler: when the array
        # lane refuses, every point quietly takes the interpreter and
        # the batch's results do not move
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=4 * KIB, reqd_work_group_size=64),
            axes={"num_simd_work_items": [1, 2, 4]},
        )

        def run_batch() -> tuple[list[str], dict[str, int]]:
            reg = obs_metrics.MetricsRegistry()
            with obs_metrics.use_registry(reg):
                results = explore(ExecutionEngine("aocl", ntimes=2), sweep)
            counters = reg.snapshot()["counters"]
            assert all(r.ok for r in results)
            runs = {
                name: counters.get(f"fastpath.runs.{name}", 0)
                for name in ("vectorized", "interpreted")
            }
            return [r.fingerprint() for r in results], runs

        default, default_runs = run_batch()
        _refuse_array_lane(monkeypatch)
        fallback, fallback_runs = run_batch()
        assert fallback == default and len(default) == 3
        assert default_runs == {"vectorized": 3, "interpreted": 0}
        assert fallback_runs == {"vectorized": 0, "interpreted": 3}

    def test_unknown_lane_rejected(self):
        # the lane is no longer selectable anywhere: a stale caller
        # fails loudly instead of having its choice silently ignored
        with pytest.raises(TypeError, match="exec_lane"):
            _engine(exec_lane="simd")
        with pytest.raises(TypeError, match="exec_lane"):
            BenchmarkRunner("cpu", exec_lane="turbo")
        with pytest.raises(SystemExit):
            main(["run", "--exec-lane", "interp"])

    @pytest.mark.parametrize("lane", ["vectorized", "interpreted"])
    def test_point_executes_its_kernel_once(self, monkeypatch, lane):
        # all WARMUP + ntimes launches reach the queue and the model;
        # only the first runs the kernel body
        if lane == "interpreted":
            _refuse_array_lane(monkeypatch)
        reg = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(reg):
            result = _engine(ntimes=5).run(
                TuningParameters(array_bytes=64 * KIB, vector_width=4)
            )
        assert result.ok and len(result.times) == 5
        counters = reg.snapshot()["counters"]
        assert counters["queue.kernel_launches"] == 6
        runs = {
            name: counters.get(f"fastpath.runs.{name}", 0)
            for name in ("vectorized", "interpreted")
        }
        assert runs == {name: int(name == lane) for name in runs}

    def test_executing_every_launch_changes_nothing(self, monkeypatch):
        # the differential behind the one-run contract: with
        # external_execution disabled every launch runs the kernel
        # again, and results and output bytes must not move
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=16 * KIB),
            axes={
                "kernel": list(ALL_KERNELS),
                "dtype": [DataType.INT, DataType.DOUBLE],
                "vector_width": [1, 4],
                "loop": [LoopManagement.NDRANGE, LoopManagement.FLAT],
            },
        )
        outputs: list[str] = []
        real_validate = engine_mod.validate_solution

        def spy(kernel, dtype, observed, **kw):
            outputs.append(output_checksum(observed))
            return real_validate(kernel, dtype, observed, **kw)

        monkeypatch.setattr(engine_mod, "validate_solution", spy)

        def campaign() -> tuple[list[str], list[str], int, int]:
            outputs.clear()
            reg = obs_metrics.MetricsRegistry()
            with obs_metrics.use_registry(reg):
                results = explore(ExecutionEngine("aocl", ntimes=2), sweep)
            counters = reg.snapshot()["counters"]
            runs = counters.get("fastpath.runs.vectorized", 0) + counters.get(
                "fastpath.runs.interpreted", 0
            )
            assert all(r.ok for r in results)
            prints = [r.fingerprint() for r in results]
            return prints, list(outputs), runs, counters["queue.kernel_launches"]

        default, default_out, default_runs, launches = campaign()
        monkeypatch.setattr(
            CommandQueue, "external_execution", lambda self: nullcontext()
        )
        forced, forced_out, forced_runs, forced_launches = campaign()
        assert forced == default
        assert forced_out == default_out and len(default_out) == len(default) == 32
        assert default_runs == len(default)
        assert forced_runs == forced_launches == launches == 3 * len(default)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.value)
def test_every_stream_kernel_writes_a_buffer_it_does_not_read(kernel):
    """The engine's one-run contract: a second pass cannot change output.

    Checked on the spec table and on every conformance variant's
    generated kernel, so neither a new kernel nor a generator change can
    slip a read of the output buffer past it.
    """
    spec = KERNELS[kernel]
    assert spec.writes not in spec.reads
    for dtype in ALL_DTYPES:
        for params in variant_grid(kernel, dtype, ARRAY_BYTES):
            gen = generate(params)
            checked = compile_source_cached(
                gen.source, {k: str(v) for k, v in gen.defines.items()}
            )
            ir = analyze(checked, gen.kernel_name)
            reads = {a.param for a in ir.reads}
            assert {a.param for a in ir.writes} == {spec.writes}, params.describe()
            assert spec.writes not in reads, params.describe()


# -- the queue's only lane choice: array lane, else the interpreter -----------

#: a data-dependent ``if``: the specializer refuses it at build time
CLAMP_SRC = """
__kernel void clamp_k(__global const int *a, __global int *c) {
    size_t i = get_global_id(0);
    if (a[i] > 4) c[i] = 4; else c[i] = a[i];
}
"""

#: with ``a`` and ``c`` bound to one buffer, sequential work-items smear
#: ``a[0]`` across the array, while whole-array evaluation would shift it
SHIFT_SRC = """
__kernel void shift_k(__global const int *a, __global int *c) {
    size_t i = get_global_id(0);
    c[i + 1] = a[i];
}
"""

#: with ``c`` and ``d`` bound to one buffer, each work-item's ``c`` store
#: overwrites its predecessor's ``d`` store, while whole-array evaluation
#: would let the ``d`` statement overwrite every ``c`` store but the first
TWO_OUT_SRC = """
__kernel void two_out_k(__global const int *a, __global int *c,
                        __global int *d) {
    size_t i = get_global_id(0);
    c[i] = a[i];
    d[i + 1] = a[i] * 2;
}
"""


def _queue_kernel(src: str, name: str, **arrays: np.ndarray):
    """A fresh cpu queue, the built kernel and one buffer per array."""
    device = find_device("cpu")
    ctx = Context(device)
    kernel = Program(ctx, src).build().create_kernel(name)
    buffers = {n: ctx.create_buffer(hostbuf=arr) for n, arr in arrays.items()}
    return CommandQueue(ctx, device), kernel, buffers


class TestQueueFallback:
    def test_control_flow_kernel_runs_interpreted(self):
        a = np.arange(16, dtype=np.int32)
        want = np.zeros(16, dtype=np.int32)
        run_kernel(
            compile_source(CLAMP_SRC), "clamp_k", (16,),
            {"a": BufferArg(a.copy()), "c": BufferArg(want)},
        )
        assert np.array_equal(want, np.minimum(a, 4))
        queue, kernel, bufs = _queue_kernel(
            CLAMP_SRC, "clamp_k", a=a, c=np.zeros(16, dtype=np.int32)
        )
        reg = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(reg):
            queue.enqueue_nd_range_kernel(kernel.set_args(**bufs), (16,))
        assert np.array_equal(bufs["c"].view(np.int32), want)
        counters = reg.snapshot()["counters"]
        assert counters.get("fastpath.runs.interpreted") == 1
        assert "fastpath.runs.vectorized" not in counters

    def test_aliased_launch_demotes_to_interpreter(self):
        n = 16
        start = np.arange(1, n + 1, dtype=np.int32)
        want = start.copy()
        run_kernel(
            compile_source(SHIFT_SRC), "shift_k", (n - 1,),
            {"a": BufferArg(want), "c": BufferArg(want)},
        )
        assert np.array_equal(want, np.ones(n, dtype=np.int32))
        queue, kernel, bufs = _queue_kernel(
            SHIFT_SRC, "shift_k",
            a=start, c=np.zeros(n, dtype=np.int32), shared=start,
        )
        reg = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(reg):
            # distinct buffers: the array lane builds and runs
            kernel.set_args(a=bufs["a"], c=bufs["c"])
            queue.enqueue_nd_range_kernel(kernel, (n - 1,))
            assert np.array_equal(bufs["c"].view(np.int32)[1:], start[:-1])
            # one buffer as input and output: _check_hazards refuses
            # the launch and the interpreter runs it instead
            kernel.set_args(a=bufs["shared"], c=bufs["shared"])
            queue.enqueue_nd_range_kernel(kernel, (n - 1,))
        assert np.array_equal(bufs["shared"].view(np.int32), want)
        counters = reg.snapshot()["counters"]
        assert counters.get("fastpath.runs.vectorized") == 1
        assert counters.get("fastpath.runs.interpreted") == 1

    def test_aliased_outputs_demote_to_interpreter(self):
        n = 16
        a = np.arange(1, n + 1, dtype=np.int32)
        want = np.zeros(n, dtype=np.int32)
        run_kernel(
            compile_source(TWO_OUT_SRC), "two_out_k", (n - 1,),
            {"a": BufferArg(a.copy()), "c": BufferArg(want), "d": BufferArg(want)},
        )
        assert np.array_equal(want, np.r_[a[: n - 1], 2 * a[n - 2]])
        queue, kernel, bufs = _queue_kernel(
            TWO_OUT_SRC, "two_out_k",
            a=a, c=np.zeros(n, dtype=np.int32), d=np.zeros(n, dtype=np.int32),
            shared=np.zeros(n, dtype=np.int32),
        )
        reg = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(reg):
            # distinct outputs: the array lane builds and runs
            kernel.set_args(a=bufs["a"], c=bufs["c"], d=bufs["d"])
            queue.enqueue_nd_range_kernel(kernel, (n - 1,))
            assert np.array_equal(bufs["d"].view(np.int32)[1:], 2 * a[:-1])
            # one buffer as both outputs: _check_hazards refuses the
            # launch and the interpreter runs it instead
            kernel.set_args(a=bufs["a"], c=bufs["shared"], d=bufs["shared"])
            queue.enqueue_nd_range_kernel(kernel, (n - 1,))
        assert np.array_equal(bufs["shared"].view(np.int32), want)
        counters = reg.snapshot()["counters"]
        assert counters.get("fastpath.runs.vectorized") == 1
        assert counters.get("fastpath.runs.interpreted") == 1


# -- the plan's bounds check: refuse, never clip or wrap -----------------------

#: kernels with one site outside its buffer: numpy would clip a slice
#: past the end, wrap a negative start and raise on a fancy index, so
#: the array lane must refuse and leave the launch to the interpreter.
#: Each entry: source, work-items, words per buffer, the refused buffer.
OUT_OF_BOUNDS = {
    "slice-past-end": (
        """
__kernel void oob_k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[i + 1] = a[i + 1];
}
""",
        8, {"a": 8, "c": 8}, "a",
    ),
    "slice-negative-start": (
        """
__kernel void oob_k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[i] = a[i - 1];
}
""",
        8, {"a": 8, "c": 8}, "a",
    ),
    "fancy-out-of-range": (
        """
__kernel void oob_k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[i] = a[(i % 2) * 8 + i / 2];
}
""",
        8, {"a": 8, "c": 8}, "a",
    ),
    # one ``idx`` lowered once, in bounds for ``a``, not for ``c``
    "shared-index-shorter-buffer": (
        """
__kernel void oob_k(__global const int *a, __global int *c) {
    size_t idx = get_global_id(0);
    c[idx] = a[idx];
}
""",
        8, {"a": 8, "c": 4}, "c",
    ),
    "shared-index-int4-view": (
        """
__kernel void oob_k(__global const int *a, __global int4 *c) {
    size_t idx = get_global_id(0);
    c[idx] = a[idx];
}
""",
        16, {"a": 32, "c": 32}, "c",
    ),
    # ``i - 1`` wraps to the top of ``size_t`` for work-item 0; as a
    # walk it would read ``a[-1]``, which a negative slice start wraps
    "size-t-underflow": (
        """
__kernel void oob_k(__global const int *a, __global int *c) {
    size_t i = get_global_id(0);
    c[i] = a[i - 1];
}
""",
        8, {"a": 8, "c": 8}, "a",
    ),
    # 2 * 20000 wraps to -25536 in a ``short``
    "narrowing-cast-wraps": (
        """
__kernel void oob_k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[i] = a[(short)(i * 20000)];
}
""",
        8, {"a": 8, "c": 8}, "a",
    ),
    "reversed-walk-past-start": (
        """
__kernel void oob_k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[8 - i] = a[i];
}
""",
        8, {"a": 8, "c": 8}, "c",
    ),
    # the column-major walk's last element is a[11]
    "strided-walk-past-end": (
        """
__kernel void oob_k(__global const int *a, __global int *c) {
    size_t g = get_global_id(0);
    size_t idx = (g % 4) * 3 + g / 4;
    c[g] = a[idx];
}
""",
        12, {"a": 11, "c": 12}, "a",
    ),
}


@pytest.mark.parametrize("case", list(OUT_OF_BOUNDS))
def test_out_of_bounds_site_refused_then_interpreted(case):
    src, n_items, words, param = OUT_OF_BOUNDS[case]
    arrays = {name: np.zeros(n, dtype=np.int32) for name, n in words.items()}
    lane = vectorize_kernel(compile_source(src), "oob_k")
    with pytest.raises(
        UnsupportedKernelError, match=f"out-of-bounds access to {param!r}"
    ):
        lane.run((n_items,), {n: BufferArg(arr) for n, arr in arrays.items()})
    # the queue falls back, and the interpreter fails the first access
    # that leaves its buffer
    queue, kernel, bufs = _queue_kernel(src, "oob_k", **arrays)
    with pytest.raises(InterpError, match="out-of-bounds access"):
        queue.enqueue_nd_range_kernel(kernel.set_args(**bufs), (n_items,))


# -- closed-form launch plans ---------------------------------------------------

#: kernels whose plan must take a given path, each checked bit for bit
#: against the interpreter on random data. Each entry: source,
#: work-items, words per buffer, then the sites the plan builds in
#: closed form and the sites it materializes.
PLAN_PATHS = {
    # a slice for the store, an index array where ``(uchar)`` wraps
    "narrowing-cast-wraps": (
        """
__kernel void k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[i] = a[(uchar)(i * 64)];
}
""",
        8, {"a": 256, "c": 8}, 1, 1,
    ),
    # 3 does not divide the 8 work-items, so ``%`` cannot split them
    "mod-by-non-divisor": (
        """
__kernel void k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[i] = a[(i % 3) * 3 + i / 3];
}
""",
        8, {"a": 9, "c": 8}, 1, 1,
    ),
    "mod-by-divisor": (
        """
__kernel void k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[i] = a[(i % 3) * 4 + i / 3];
}
""",
        12, {"a": 12, "c": 12}, 2, 0,
    ),
    "reversed-walk": (
        """
__kernel void k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[7 - i] = a[i];
}
""",
        8, {"a": 8, "c": 8}, 2, 0,
    ),
    "reversed-2d-walk": (
        """
__kernel void k(__global const int *a, __global int *c) {
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 3; j++) {
            c[(3 - i) * 3 + j] = a[j * 4 + i];
        }
    }
}
""",
        1, {"a": 12, "c": 12}, 2, 0,
    ),
    # ``a[i]`` does not move along ``j``: a stride-0 view
    "zero-stride-load": (
        """
__kernel void k(__global const int *a, __global int *c) {
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 3; j++) {
            c[i * 3 + j] = a[i];
        }
    }
}
""",
        1, {"a": 4, "c": 12}, 2, 0,
    ),
    # a store that writes each element three times keeps the index
    # array, whose last write wins as the interpreter's does
    "zero-stride-store": (
        """
__kernel void k(__global const int *a, __global int *c) {
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 3; j++) {
            c[i] = a[i * 3 + j];
        }
    }
}
""",
        1, {"a": 12, "c": 4}, 1, 1,
    ),
    # the index is also a value: the plan builds the domain arrays
    "index-stored-as-value": (
        """
__kernel void k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[i] = i;
}
""",
        8, {"a": 8, "c": 8}, 1, 0,
    ),
    "strided-walk-value-of-gid": (
        """
__kernel void k(__global const int *a, __global int *c) {
    size_t g = get_global_id(0);
    size_t idx = (g % 4) * 3 + g / 4;
    c[idx] = a[idx] + (int)get_global_id(0);
}
""",
        12, {"a": 12, "c": 12}, 2, 0,
    ),
    "int4-strided-walk": (
        """
__kernel void k(__global const int4 *a, __global int4 *c) {
    size_t g = get_global_id(0);
    size_t idx = (g % 4) * 3 + g / 4;
    c[idx] = a[idx] * 3 + 1;
}
""",
        12, {"a": 48, "c": 48}, 2, 0,
    ),
    # a scalar per work-item broadcasts across the int4 lanes
    "scalar-into-int4-strided-walk": (
        """
__kernel void k(__global const int *a, __global int4 *c) {
    size_t g = get_global_id(0);
    size_t idx = (g % 4) * 3 + g / 4;
    c[idx] = a[idx];
}
""",
        12, {"a": 12, "c": 48}, 2, 0,
    ),
    "vload4-strided-walk": (
        """
__kernel void k(__global const int *a, __global int *c) {
    size_t g = get_global_id(0);
    size_t idx = (g % 4) * 3 + g / 4;
    vstore4(vload4(idx, a) * 3, idx, c);
}
""",
        12, {"a": 48, "c": 48}, 2, 0,
    ),
    "vload4-strided-nested-loops": (
        """
__kernel void k(__global const int *a, __global int *c) {
    for (int j = 0; j < 3; j++) {
        for (int i = 0; i < 4; i++) {
            int idx = i * 3 + j;
            vstore4(vload4(idx, a) + 2, idx, c);
        }
    }
}
""",
        1, {"a": 48, "c": 48}, 2, 0,
    ),
    # two divisors of one variable split it into three digits
    "chained-splits": (
        """
__kernel void k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[(i / 4) * 4 + (i % 2) * 2 + (i / 2) % 2] = a[i];
}
""",
        16, {"a": 16, "c": 16}, 2, 0,
    ),
    "integer-reduction-over-strided-walk": (
        """
__kernel void k(__global const int *a, __global int *c) {
    int acc = 0;
    for (int j = 0; j < 3; j++) {
        for (int i = 0; i < 4; i++) {
            acc += a[i * 3 + j] * (i + 1);
        }
    }
    c[0] = acc;
}
""",
        1, {"a": 12, "c": 1}, 2, 0,
    ),
    # ``2 * i - 5`` splits into 2 * (i - 3) + 1, but C truncates its
    # negative values toward zero where that quotient walk would floor
    "negative-dividend": (
        """
__kernel void k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[i] = a[(2 * i - 5) / 2 + 3];
}
""",
        8, {"a": 8, "c": 8}, 1, 1,
    ),
    "bitwise-index": (
        """
__kernel void k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[i] = a[i ^ 1];
}
""",
        8, {"a": 8, "c": 8}, 1, 1,
    ),
    # a uniform int4 times a scalar per work-item on a 4 x 3 and a
    # 3 x 4 walk: whichever domain extent equals the width, every lane
    # k holds a * lit[k]
    "int4-literal-times-4x3-walk": (
        """
__kernel void k(__global const int *a, __global int4 *c) {
    size_t g = get_global_id(0);
    size_t idx = (g % 4) * 3 + g / 4;
    c[idx] = a[idx] * (int4)(1, 2, 3, 4);
}
""",
        12, {"a": 12, "c": 48}, 2, 0,
    ),
    "int4-literal-times-3x4-walk": (
        """
__kernel void k(__global const int *a, __global int4 *c) {
    size_t g = get_global_id(0);
    size_t idx = (g % 3) * 4 + g / 3;
    c[idx] = a[idx] * (int4)(1, 2, 3, 4);
}
""",
        12, {"a": 12, "c": 48}, 2, 0,
    ),
    # as many work-items as lanes: the uniform int4 still fills each
    # element, not one lane per work-item
    "uniform-int4-stored-per-work-item": (
        """
__kernel void k(__global const int *a, __global int4 *c) {
    int g = get_global_id(0);
    c[g] = (int4)(1, 2, 3, 4) * a[0];
}
""",
        4, {"a": 4, "c": 16}, 2, 0,
    ),
    # a scalar converted to int4 has every lane equal
    "scalar-splat-then-swizzle": (
        """
__kernel void k(__global const int *a, __global int *c) {
    int g = get_global_id(0);
    int4 v = a[g];
    c[g] = v.y + ((int4)a[g]).w;
}
""",
        8, {"a": 8, "c": 8}, 3, 0,
    ),
}


def _sites(counters: dict) -> tuple[int, int]:
    return (
        counters.get("fastpath.sites.closed_form", 0),
        counters.get("fastpath.sites.materialized", 0),
    )


def _run_both(src: str, n_items: int, words: dict[str, int], seed: int = 0):
    """Interpreter and array lane on the same random buffers.

    Returns both outputs (``None`` for a driver that failed the
    launch: the interpreter's ``InterpError``, the lane's refusal) and
    the lane's plan counters.
    """
    rng = np.random.default_rng(seed)
    start = {
        name: rng.integers(-1000, 1000, n).astype(np.int32)
        for name, n in words.items()
    }
    program = compile_source(src)
    want: dict[str, np.ndarray] | None = {n: a.copy() for n, a in start.items()}
    try:
        run_kernel(program, "k", (n_items,), {n: BufferArg(a) for n, a in want.items()})
    except InterpError:
        want = None
    got: dict[str, np.ndarray] | None = {n: a.copy() for n, a in start.items()}
    reg = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(reg):
        try:
            vectorize_kernel(program, "k").run(
                (n_items,), {n: BufferArg(a) for n, a in got.items()}
            )
        except UnsupportedKernelError:
            got = None
    return want, got, reg.snapshot()["counters"]


@pytest.mark.parametrize("case", list(PLAN_PATHS))
def test_plan_path_and_bits(case):
    src, n_items, words, closed, materialized = PLAN_PATHS[case]
    want, got, counters = _run_both(src, n_items, words)
    assert want is not None and got is not None
    for name in words:
        assert np.array_equal(got[name], want[name]), name
    assert _sites(counters) == (closed, materialized)


_INT_INTO_INT4 = """
__kernel void k(__global const int *a, __global int4 *c) {
    int g = get_global_id(0);
    c[0] = a[g];
}
"""

#: a value per work-item stored to one element: the interpreter keeps
#: the last work-item's value, which the array lane cannot, so it
#: refuses. Each entry: source, work-items, words per buffer.
ONE_ELEMENT_STORES = {
    "int": (
        """
__kernel void k(__global const int *a, __global int *c) {
    int g = get_global_id(0);
    c[0] = a[g] + 7;
}
""",
        4, {"a": 4, "c": 4},
    ),
    # as many work-items as lanes, then twice as many
    "int-into-int4-4-items": (_INT_INTO_INT4, 4, {"a": 4, "c": 4}),
    "int-into-int4-8-items": (_INT_INTO_INT4, 8, {"a": 8, "c": 4}),
}


@pytest.mark.parametrize("case", list(ONE_ELEMENT_STORES))
def test_value_per_work_item_into_one_element_refuses(case):
    src, n_items, words = ONE_ELEMENT_STORES[case]
    want, got, _ = _run_both(src, n_items, words)
    assert got is None and want is not None


def test_queue_interprets_a_one_element_store():
    src = ONE_ELEMENT_STORES["int"][0]
    queue, kernel, bufs = _queue_kernel(
        src, "k", a=np.arange(4, dtype=np.int32), c=np.zeros(4, dtype=np.int32)
    )
    queue.enqueue_nd_range_kernel(kernel.set_args(**bufs), (4,))
    assert list(bufs["c"].view(np.int32)) == [10, 0, 0, 0]


OVERLAPPING_STORES_SRC = """
__kernel void k(__global const int *a, __global int *c) {
    int i = get_global_id(0);
    c[i] = a[i];
    c[i + 1] = 10 * a[i];
}
"""


def test_overlapping_stores_refuse_then_interpret():
    # work-item i's second store lands where item i + 1's first does;
    # statement by statement over the whole domain, the lane would
    # leave [1, 10, 20, 30] where the interpreter leaves [1, 2, 3, 30]
    program = compile_source(OVERLAPPING_STORES_SRC)
    a = np.array([1, 2, 3, 4], dtype=np.int32)
    want = np.zeros(4, dtype=np.int32)
    run_kernel(program, "k", (3,), {"a": BufferArg(a), "c": BufferArg(want)})
    assert list(want) == [1, 2, 3, 30]
    with pytest.raises(UnsupportedKernelError, match="overlap"):
        vectorize_kernel(program, "k").run(
            (3,), {"a": BufferArg(a), "c": BufferArg(np.zeros(4, np.int32))}
        )
    queue, kernel, bufs = _queue_kernel(
        OVERLAPPING_STORES_SRC, "k", a=a, c=np.zeros(4, dtype=np.int32)
    )
    reg = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(reg):
        queue.enqueue_nd_range_kernel(kernel.set_args(**bufs), (3,))
    assert np.array_equal(bufs["c"].view(np.int32), want)
    assert reg.snapshot()["counters"].get("fastpath.runs.interpreted") == 1
    # stores that cannot meet stay on the lane, whatever their order
    disjoint = OVERLAPPING_STORES_SRC.replace("c[i + 1]", "c[i + 3]")
    want, got, _ = _run_both(disjoint, 3, {"a": 3, "c": 6})
    assert got is not None and np.array_equal(got["c"], want["c"])


@pytest.mark.parametrize("acc, value", [("int", "3"), ("int4", "(int4)(1, 2, 3, 4)")])
def test_sum_of_a_uniform_value_refuses(acc, value):
    # the interpreter adds the value once per iteration; the array lane
    # sums along the domain, which a value without one does not have
    src = f"""
__kernel void k(__global const int *a, __global {acc} *c) {{
    {acc} total = 0;
    for (int i = 0; i < 4; i++) {{
        total += {value};
    }}
    c[0] = total;
}}
"""
    want, got, _ = _run_both(src, 1, {"a": 4, "c": 4})
    assert got is None and want is not None


def test_non_contiguous_buffer_refuses():
    # the lane's views address a buffer's memory directly, so a strided
    # argument goes to the interpreter
    src = """
__kernel void k(__global const int4 *a, __global int4 *c) {
    int g = get_global_id(0);
    c[g] = a[g] + 1;
}
"""
    program = compile_source(src)
    c = np.zeros(32, dtype=np.int32)[::2]
    a = np.arange(16, dtype=np.int32)
    with pytest.raises(UnsupportedKernelError, match="not contiguous"):
        vectorize_kernel(program, "k").run((4,), {"a": BufferArg(a), "c": BufferArg(c)})


def test_generated_kernels_build_no_index_array():
    """Every conformance variant's plan is closed form: contiguous and
    strided walks, NDRange and both loop styles, vector types and
    vload/vstore. An index array here is a lost fast path."""
    reg = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(reg):
        for kernel in ALL_KERNELS:
            for params in variant_grid(kernel, DataType.FLOAT, ARRAY_BYTES):
                _run_lane(params, vectorize_kernel)
    closed, materialized = _sites(reg.snapshot()["counters"])
    assert closed > 0 and materialized == 0


#: the index forms the random kernels draw from: domain variables, a
#: pure local, literals, + - *, / and % by a constant, and casts
_CASTS = ("int", "uint", "long", "size_t", "short", "uchar")


@st.composite
def _index_expr(draw, names: tuple[str, ...], depth: int = 0) -> str:
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        if draw(st.booleans()):
            return draw(st.sampled_from(names))
        return str(draw(st.integers(0, 12)))
    kind = draw(st.sampled_from(("+", "-", "*", "/", "%", "cast")))
    inner = draw(_index_expr(names, depth + 1))
    if kind == "cast":
        return f"({draw(st.sampled_from(_CASTS))})({inner})"
    if kind in ("/", "%"):
        return f"({inner}) {kind} {draw(st.integers(1, 6))}"
    if kind == "*":
        return f"({inner}) * {draw(st.integers(0, 6))}"
    other = draw(_index_expr(names, depth + 1))
    return f"({inner}) {kind} ({other})"


#: what the random kernels store into an ``int4`` buffer: a scalar per
#: work-item converted to int4, or met by a uniform int4
_INT4_VALUES = (
    "a[{load}] + 7",
    "a[{load}] * (int4)(1, 2, 3, 4)",
    "(int4)(a[{load}], 1, t, 3) + (int4)(t)",
)


@st.composite
def _walk_kernel(draw) -> tuple[str, int]:
    """A random kernel: an NDRange or a loop nest, one load, one store
    into an ``int`` or an ``int4`` buffer."""
    ndrange = draw(st.booleans())
    loops = draw(st.integers(0 if ndrange else 1, 2))
    n_items = draw(st.integers(1, 24)) if ndrange else 1
    body: list[str] = []
    names: list[str] = []
    if ndrange:
        body.append(f"{draw(st.sampled_from(('int', 'size_t')))} g = get_global_id(0);")
        names.append("g")
    heads = []
    for level in range(loops):
        var = "ij"[level]
        start, trips, step = (
            draw(st.integers(0, 2)), draw(st.integers(1, 6)), draw(st.integers(1, 2))
        )
        heads.append(
            f"for (int {var} = {start}; {var} < {start + trips * step}; "
            f"{var} += {step}) {{"
        )
        names.append(var)
    local = draw(_index_expr(tuple(names)))
    load = draw(_index_expr(tuple(names) + ("t",)))
    store = draw(_index_expr(tuple(names) + ("t",)))
    element = draw(st.sampled_from(("int", "int4")))
    value = "a[{load}] + 7"
    if element == "int4":
        value = draw(st.sampled_from(_INT4_VALUES))
    inner = [
        f"int t = {local};",
        f"c[{store}] = {value.format(load=load)};",
    ]
    src = "\n".join(
        [f"__kernel void k(__global const int *a, __global {element} *c) {{"]
        + body + heads + inner + ["}"] * loops + ["}"]
    )
    return src, n_items


@settings(max_examples=200, deadline=None)
@given(_walk_kernel(), st.integers(0, 2**16))
def test_random_index_walks_match_interpreter_or_refuse(kernel, seed):
    src, n_items = kernel
    # an int4 buffer of 1,600 words has as many elements as the int one
    c_words = 1600 if "int4 *c" in src else 400
    want, got, _ = _run_both(src, n_items, {"a": 400, "c": c_words}, seed)
    if got is None:
        return  # a loud refusal is the allowed escape hatch
    assert want is not None, f"the array lane ran what the interpreter failed:\n{src}"
    for name in ("a", "c"):
        assert np.array_equal(got[name], want[name]), f"{name} diverged:\n{src}"


class TestSlotBatchScheduler:
    def test_slot_batch_validated(self):
        # slot batching is gone (every point runs its kernel once): a
        # stale caller fails loudly instead of being silently ignored
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=4 * KIB),
            axes={"vector_width": [1, 2]},
        )
        with pytest.raises(TypeError, match="slot_batch"):
            explore(_engine(ntimes=1), sweep, slot_batch=2)
        with pytest.raises(TypeError, match="slot_batch"):
            CampaignScheduler(_engine(ntimes=1), slot_batch=2)
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--target", "cpu", "--size", "4KiB",
                "--axis", "vector_width=1,2", "--ntimes", "1",
                "--slot-batch", "4",
            ])
        assert exc.value.code == 2


# -- hypothesis: vectorize exactly or refuse loudly ---------------------------


def _vectorize_diverges(params: TuningParameters) -> bool:
    """True when the array lane silently produces different bits."""
    try:
        got = _checksum(params, vectorize_kernel)
    except UnsupportedKernelError:
        return False  # a loud refusal is the allowed escape hatch
    return got != _oracle(params)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_points_vectorize_exactly_or_refuse(seed):
    params = random_point(np.random.default_rng(seed), max_bytes=4096)
    if _vectorize_diverges(params):
        shrunk = shrink_failure(params, _vectorize_diverges)
        pytest.fail(
            f"array lane silently diverged; shrunk repro: {shrunk.describe()}"
        )


@pytest.mark.slow
@settings(max_examples=250, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_points_vectorize_exactly_or_refuse_deep(seed):
    params = random_point(np.random.default_rng(seed), max_bytes=16384)
    if _vectorize_diverges(params):
        shrunk = shrink_failure(params, _vectorize_diverges)
        pytest.fail(
            f"array lane silently diverged; shrunk repro: {shrunk.describe()}"
        )


# -- golden corpus pinning ----------------------------------------------------


def test_vectorized_outputs_match_golden_corpus():
    """The array lane reproduces every pinned interpreter checksum.

    The corpus pins ``output_sha`` per (target, point); divergence the
    fuzz loop might one day find gets pinned here by the resulting
    corpus diff, so a behavioural change cannot land silently.
    """
    corpus = load_corpus(DEFAULT_GOLDEN_PATH)["entries"]
    checked_entries = 0
    for target, params in corpus_grid():
        entry = corpus.get(point_fingerprint(target, params))
        if entry is None:  # corpus grid drifted: the golden test owns that
            continue
        assert _checksum(params, vectorize_kernel) == entry["output_sha"], (
            f"{target} {params.describe()}"
        )
        checked_entries += 1
    assert checked_entries >= 16


# -- negative path: the vectorize fault site ----------------------------------

SMALL = TuningParameters(array_bytes=16 * KIB)


class TestVectorizeFaultSite:
    def test_site_registered(self):
        assert "vectorize" in FAULT_SITES
        spec = FaultSpec.parse("vectorize=0.5,seed=3")
        assert dict(spec.rates) == {"vectorize": 0.5}

    def test_corruption_deterministic_and_single_word(self):
        plan = FaultPlan.parse("vectorize=0.5,seed=21")
        draws = []
        for i in range(20):
            arrays = {n: np.ones(16, dtype=np.int32) for n in ("a", "b", "c")}
            fired = plan.corrupt_vectorize(f"k{i}", 0, arrays)
            flipped = sum(int((arrays[n] != 1).sum()) for n in arrays)
            assert flipped == (1 if fired else 0)
            draws.append(fired)
        assert any(draws) and not all(draws)
        replay = FaultPlan.parse("vectorize=0.5,seed=21")
        assert draws == [
            replay.corrupt_vectorize(
                f"k{i}", 0, {n: np.ones(16, dtype=np.int32) for n in ("a", "b", "c")}
            )
            for i in range(20)
        ]

    def test_array_lane_miscompile_caught_by_verify_only(self):
        # validation passed before the corruption fires, so only the
        # strict differential verify stage can catch it — as a
        # permanent verify_mismatch, with no retry budget burned
        plan = FaultPlan.parse("vectorize=1.0,seed=7")
        engine = _engine(ntimes=1, verify=True, faults=plan)
        result = engine.run(SMALL)
        assert not result.ok
        assert result.failure_kind == "verify_mismatch"
        assert result.detail["engine"]["attempts"] == 1

    def test_unverified_run_lets_corruption_through(self):
        # documents why the verify stage gates the array lane: without
        # it the below-tolerance flip sails through validation
        plan = FaultPlan.parse("vectorize=1.0,seed=7")
        result = _engine(ntimes=1, verify=False, faults=plan).run(SMALL)
        assert result.ok

    def test_surfaces_identically_on_every_backend(self):
        def campaign(backend: str):
            return explore(
                _engine(
                    ntimes=1,
                    verify=True,
                    faults=FaultPlan.parse("vectorize=1.0,seed=7"),
                ),
                ParameterSweep(base=SMALL, axes={"vector_width": [1, 4]}),
                jobs=1 if backend == "serial" else 2,
                backend=backend,
            )

        runs = {b: campaign(b) for b in ("serial", "process")}
        for backend, results in runs.items():
            assert [r.failure_kind for r in results] == (
                ["verify_mismatch"] * 2
            ), backend
        baseline = [r.fingerprint() for r in runs["serial"]]
        assert [r.fingerprint() for r in runs["process"]] == baseline
