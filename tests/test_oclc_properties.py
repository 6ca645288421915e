"""Property-based tests for the compiler front-end (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AccessPattern,
    DataType,
    KernelName,
    LoopManagement,
    TuningParameters,
    generate,
)
from repro.oclc import (
    BufferArg,
    analyze,
    compile_source,
    parse,
    run_kernel,
    to_source,
    vectorize_kernel,
)

# -- strategy: a random (valid) tuning point small enough to interpret -------

_dtypes = st.sampled_from([DataType.INT, DataType.DOUBLE])
_kernels = st.sampled_from(list(KernelName))
_patterns = st.sampled_from(list(AccessPattern))
_loops = st.sampled_from(list(LoopManagement))
_widths = st.sampled_from([1, 2, 4, 8, 16])


@st.composite
def tuning_points(draw) -> TuningParameters:
    dtype = draw(_dtypes)
    width = draw(_widths)
    # keep arrays tiny: at most 256 vector elements
    n_elements = draw(st.sampled_from([16, 32, 64, 128, 256]))
    loop = draw(_loops)
    unroll = draw(st.sampled_from([1, 2, 4])) if loop is not LoopManagement.NDRANGE else 1
    return TuningParameters(
        kernel=draw(_kernels),
        array_bytes=n_elements * width * dtype.size,
        dtype=dtype,
        vector_width=width,
        pattern=draw(_patterns),
        loop=loop,
        unroll=unroll,
    )


@settings(max_examples=40, deadline=None)
@given(tuning_points())
def test_generated_source_parses_and_roundtrips(params):
    """generate() output parses; pretty-print -> parse is structurally stable."""
    gen = generate(params)
    unit = parse(gen.source, {k: str(v) for k, v in gen.defines.items()})
    printed = to_source(unit)
    reparsed = parse(printed)
    assert to_source(reparsed) == printed  # fixed point after one print


@settings(max_examples=30, deadline=None)
@given(tuning_points())
def test_specializer_matches_interpreter_on_generated_kernels(params):
    """The fast path computes exactly what the reference interpreter does."""
    gen = generate(params)
    defines = {k: str(v) for k, v in gen.defines.items()}
    program = compile_source(gen.source, defines)

    dt = {DataType.INT: np.int32, DataType.DOUBLE: np.float64}[params.dtype]
    rng = np.random.default_rng(params.array_bytes + params.vector_width)
    n = params.word_count
    base = {
        "a": rng.integers(-50, 50, n).astype(dt),
        "b": rng.integers(-50, 50, n).astype(dt),
        "c": rng.integers(-50, 50, n).astype(dt),
    }
    from repro.core.kernels import KERNELS

    spec = KERNELS[params.kernel]
    names = (*spec.reads, spec.writes)

    interp_arrays = {k: v.copy() for k, v in base.items()}
    spec_arrays = {k: v.copy() for k, v in base.items()}

    def args(arrays):
        out = {name: BufferArg(arrays[name]) for name in names}
        if spec.uses_scalar:
            out["q"] = dt(3)
        return out

    run_kernel(program, gen.kernel_name, gen.global_size, args(interp_arrays))
    vectorize_kernel(program, gen.kernel_name).run(
        gen.global_size, args(spec_arrays)
    )

    for name in ("a", "b", "c"):
        np.testing.assert_array_equal(
            interp_arrays[name],
            spec_arrays[name],
            err_msg=f"array {name} diverged for {params.describe()}",
        )


@settings(max_examples=40, deadline=None)
@given(tuning_points())
def test_analysis_accesses_match_kernel_spec(params):
    """The IR sees exactly the reads/writes the STREAM kernel defines."""
    from repro.core.kernels import KERNELS

    gen = generate(params)
    program = compile_source(gen.source, {k: str(v) for k, v in gen.defines.items()})
    ir = analyze(program, gen.kernel_name)
    spec = KERNELS[params.kernel]
    assert {a.param for a in ir.reads} == set(spec.reads)
    assert {a.param for a in ir.writes} == {spec.writes}
    assert ir.vector_width == params.vector_width
    # loop-mode classification matches the requested management
    assert ir.loop_mode.value == params.loop.value


@settings(max_examples=30, deadline=None)
@given(tuning_points())
def test_index_streams_cover_every_touched_element(params):
    """Every access stream touches each element exactly once."""
    from repro.oclc.analysis import index_stream

    gen = generate(params)
    program = compile_source(gen.source, {k: str(v) for k, v in gen.defines.items()})
    ir = analyze(program, gen.kernel_name)
    for access in ir.accesses:
        stream = index_stream(ir, access, global_size=gen.global_size[0])
        n_touched = gen.touched_words // params.vector_width
        assert len(stream) == n_touched
        assert sorted(stream.tolist()) == list(range(n_touched))


# -- domain flattening against the %, // and gather loop it replaced -----------


def _flatten_by_division(domain, limit=None):
    """The old flattening: divide each flat position by the inner span."""
    total = int(np.prod([len(values) for _, values in domain]))
    limit = total if limit is None else min(total, limit)
    rem = np.arange(limit, dtype=np.int64)
    env = {}
    for var, values in reversed(domain):
        env[var] = values[rem % len(values)]
        rem = rem // len(values)
    return env


_loop_ranges = st.tuples(
    st.integers(-4, 4), st.integers(0, 6), st.integers(1, 3)
).map(lambda r: np.arange(r[0], r[0] + r[1] * r[2], r[2], dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_loop_ranges, min_size=1, max_size=3),
    st.one_of(st.none(), st.sampled_from([0, 1]), st.integers(0, 300)),
)
def test_flatten_domain_matches_division(ranges, limit):
    """Same values, dtype and order as ``values[(p // inner) % n]``,
    including zero-trip loops and windows past the domain's end."""
    from repro.oclc.analysis import flatten_domain

    domain = [(f"v{k}", values) for k, values in enumerate(ranges)]
    got = flatten_domain(domain, limit)
    want = _flatten_by_division(domain, limit)
    assert list(got) == list(want)
    for var, values in want.items():
        assert got[var].dtype == values.dtype == np.int64
        assert got[var].tolist() == values.tolist()
