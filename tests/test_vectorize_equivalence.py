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
grid-point-stacked batch path (``VectorKernel.run_batch`` and
``ExecutionEngine.run_batch``), the queue's fallback to the
interpreter, hypothesis fuzzing with greedy shrinking, golden-corpus
pinning, and the ``vectorize`` fault site's negative path on all three
scheduler backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import explore
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
from repro.core.sweep import ParameterSweep
from repro.errors import SweepError, UnsupportedKernelError
from repro.faults import FAULT_SITES, FaultPlan, FaultSpec
from repro.obs import metrics as obs_metrics
from repro.ocl import CommandQueue, Context, Program
from repro.ocl.platform import find_device
from repro.oclc import (
    VectorKernel,
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


# -- batch path: stacked grid points == one-at-a-time -------------------------


def _batch_fixture(params: TuningParameters, n: int):
    """(kernel, gen, n calls with distinct initial arrays, copies)."""
    gen = generate(params)
    checked = compile_source_cached(
        gen.source, {k: str(v) for k, v in gen.defines.items()}
    )
    vk = vectorize_kernel(checked, gen.kernel_name)
    assert isinstance(vk, VectorKernel)
    spec = KERNELS[params.kernel]
    rng = np.random.default_rng(17)
    calls, mirrors = [], []
    for _ in range(n):
        base = initial_arrays(params.word_count, params.dtype)
        arrays = {
            name: (base[name] + rng.integers(1, 5)).astype(base[name].dtype)
            for name in ("a", "b", "c")
        }
        mirrors.append({name: arr.copy() for name, arr in arrays.items()})
        call = {
            name: BufferArg(arrays[name]) for name in (*spec.reads, spec.writes)
        }
        if spec.uses_scalar:
            call["q"] = SCALAR_Q
        calls.append((arrays, call))
    return gen, vk, spec, calls, mirrors


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.value)
def test_run_batch_matches_per_run(kernel):
    params = TuningParameters(
        kernel=kernel, array_bytes=ARRAY_BYTES, vector_width=4
    )
    gen, vk, spec, calls, mirrors = _batch_fixture(params, 4)
    vk.run_batch(gen.global_size, [c for _, c in calls], gen.local_size)
    for (arrays, _), mirror in zip(calls, mirrors):
        call = {
            name: BufferArg(mirror[name]) for name in (*spec.reads, spec.writes)
        }
        if spec.uses_scalar:
            call["q"] = SCALAR_Q
        vk.run(gen.global_size, call, gen.local_size)
        for name in ("a", "b", "c"):
            assert np.array_equal(arrays[name], mirror[name]), (
                f"{kernel.value}: batched {name} diverges from per-run"
            )


def test_run_batch_refuses_mixed_shapes():
    params = TuningParameters(array_bytes=ARRAY_BYTES)
    gen, vk, spec, calls, _ = _batch_fixture(params, 2)
    small = initial_arrays(params.word_count // 2, params.dtype)
    calls[1][1]["a"] = BufferArg(small["a"])
    with pytest.raises(UnsupportedKernelError, match="shape"):
        vk.run_batch(gen.global_size, [c for _, c in calls], gen.local_size)


def test_run_batch_refuses_mixed_scalars():
    params = TuningParameters(kernel=KernelName.TRIAD, array_bytes=ARRAY_BYTES)
    gen, vk, spec, calls, _ = _batch_fixture(params, 2)
    calls[1][1]["q"] = SCALAR_Q + 1
    with pytest.raises(UnsupportedKernelError, match="scalar"):
        vk.run_batch(gen.global_size, [c for _, c in calls], gen.local_size)


def test_run_batch_single_and_empty_degenerate():
    params = TuningParameters(array_bytes=ARRAY_BYTES)
    gen, vk, spec, calls, mirrors = _batch_fixture(params, 1)
    vk.run_batch(gen.global_size, [])  # no-op
    vk.run_batch(gen.global_size, [calls[0][1]], gen.local_size)
    call = {
        name: BufferArg(mirrors[0][name]) for name in (*spec.reads, spec.writes)
    }
    vk.run(gen.global_size, call, gen.local_size)
    for name in ("a", "b", "c"):
        assert np.array_equal(calls[0][0][name], mirrors[0][name])


# -- engine + scheduler integration -------------------------------------------

#: a batchable slot: the simd attribute changes the device build but
#: not the kernel body, so all three points share one batch signature
BATCH_POINTS = [
    TuningParameters(
        array_bytes=64 * KIB, reqd_work_group_size=64, num_simd_work_items=s
    )
    for s in (1, 2, 4)
]


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

    def test_unknown_lane_rejected(self):
        # the lane is no longer selectable anywhere: a stale caller
        # fails loudly instead of having its choice silently ignored
        with pytest.raises(TypeError, match="exec_lane"):
            _engine(exec_lane="simd")
        with pytest.raises(TypeError, match="exec_lane"):
            BenchmarkRunner("cpu", exec_lane="turbo")
        with pytest.raises(SystemExit):
            main(["run", "--exec-lane", "interp"])

    def test_run_batch_matches_run_fingerprints(self):
        reg = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(reg):
            batched = ExecutionEngine("aocl", ntimes=2).run_batch(BATCH_POINTS)
        single = [
            ExecutionEngine("aocl", ntimes=2).run(p) for p in BATCH_POINTS
        ]
        assert [r.fingerprint() for r in batched] == [
            r.fingerprint() for r in single
        ]
        counters = reg.snapshot()["counters"]
        assert counters.get("engine.batched_points", 0) == len(BATCH_POINTS)
        assert counters.get("fastpath.runs.primed", 0) > 0

    def test_run_batch_heterogeneous_points_still_identical(self):
        # differing kernels / dtypes split into singleton groups: no
        # priming happens, results still match the unbatched path
        points = [
            TuningParameters(array_bytes=32 * KIB),
            TuningParameters(
                array_bytes=32 * KIB, kernel=KernelName.TRIAD
            ),
            TuningParameters(array_bytes=32 * KIB, dtype=DataType.DOUBLE),
        ]
        batched = _engine().run_batch(points)
        single = [_engine().run(p) for p in points]
        assert [r.fingerprint() for r in batched] == [
            r.fingerprint() for r in single
        ]

    def test_run_batch_degrades_when_array_lane_refuses(self, monkeypatch):
        # a kernel the array lane refuses cannot be primed, so batching
        # must quietly degrade to the per-point (interpreted) path
        points = [p.with_(array_bytes=4 * KIB) for p in BATCH_POINTS]

        def run_batch() -> tuple[list[str], int]:
            reg = obs_metrics.MetricsRegistry()
            with obs_metrics.use_registry(reg):
                results = ExecutionEngine("aocl", ntimes=2).run_batch(points)
            counters = reg.snapshot()["counters"]
            prints = [r.fingerprint() for r in results]
            return prints, counters.get("engine.batched_points", 0)

        default, default_batched = run_batch()
        _refuse_array_lane(monkeypatch)
        fallback, fallback_batched = run_batch()
        assert fallback == default
        assert default_batched == len(points) and fallback_batched == 0


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


class TestSlotBatchScheduler:
    def _sweep(self):
        return ParameterSweep(
            base=TuningParameters(array_bytes=32 * KIB),
            axes={"vector_width": [1, 2, 4], "array_bytes": [32 * KIB, 64 * KIB]},
        )

    def test_slot_batched_sweep_fingerprint_identical(self):
        plain = explore(_engine(ntimes=1), self._sweep())
        batched = explore(_engine(ntimes=1), self._sweep(), slot_batch=4)
        assert len(plain) == len(batched) == 6
        assert [r.fingerprint() for r in plain] == [
            r.fingerprint() for r in batched
        ]

    def test_slot_batch_validated(self):
        with pytest.raises(SweepError, match="slot_batch"):
            explore(_engine(ntimes=1), self._sweep(), slot_batch=0)


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
        engine = _engine(ntimes=1, verify=True, validate=True, faults=plan)
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

        runs = {b: campaign(b) for b in ("serial", "thread", "process")}
        for backend, results in runs.items():
            assert [r.failure_kind for r in results] == (
                ["verify_mismatch"] * 2
            ), backend
        baseline = [r.fingerprint() for r in runs["serial"]]
        assert [r.fingerprint() for r in runs["thread"]] == baseline
        assert [r.fingerprint() for r in runs["process"]] == baseline
