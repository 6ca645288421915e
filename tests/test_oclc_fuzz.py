"""Fuzzing the front-end: oracle equivalence and crash-freedom."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OclcError, ReproError
from repro.oclc import BufferArg, compile_source, parse, run_kernel

# hypothesis fuzzing is the long tail of the suite; tier-1 runs skip it
pytestmark = pytest.mark.slow

# ---------------------------------------------------------------------------
# oracle: random integer expressions evaluated by the interpreter must
# match a numpy int32 evaluation of the same tree
# ---------------------------------------------------------------------------

_INT_BIN_OPS = ["+", "-", "*", "&", "|", "^"]


@st.composite
def int_exprs(draw, depth=0):
    """(source_text, python_eval_fn) pairs over variables x, y."""
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            v = draw(st.integers(-100, 100))
            if v < 0:
                return f"({v})", (lambda env, v=v: np.int32(v))
            return str(v), (lambda env, v=v: np.int32(v))
        name = "x" if choice == 1 else "y"
        return name, (lambda env, name=name: env[name])
    op = draw(st.sampled_from(_INT_BIN_OPS))
    lt, lf = draw(int_exprs(depth=depth + 1))
    rt, rf = draw(int_exprs(depth=depth + 1))

    def fn(env, op=op, lf=lf, rf=rf):
        a, b = lf(env), rf(env)
        with np.errstate(over="ignore"):
            return {
                "+": lambda: np.int32(a + b),
                "-": lambda: np.int32(a - b),
                "*": lambda: np.int32(a * b),
                "&": lambda: np.int32(a & b),
                "|": lambda: np.int32(a | b),
                "^": lambda: np.int32(a ^ b),
            }[op]()

    return f"({lt} {op} {rt})", fn


@settings(max_examples=60, deadline=None)
@given(int_exprs(), st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_interpreter_matches_numpy_oracle(expr, x, y):
    text, fn = expr
    src = (
        "__kernel void k(__global int *out, const int x, const int y)"
        f"{{ out[0] = {text}; }}"
    )
    program = compile_source(src)
    out = np.zeros(1, dtype=np.int32)
    run_kernel(
        program, "k", (1,),
        {"out": BufferArg(out), "x": np.int32(x), "y": np.int32(y)},
    )
    want = fn({"x": np.int32(x), "y": np.int32(y)})
    assert out[0] == want, f"{text} with x={x} y={y}"


@settings(max_examples=60, deadline=None)
@given(int_exprs(), st.integers(-50, 50), st.integers(-50, 50))
def test_specializer_matches_interpreter_on_fuzzed_exprs(expr, x, y):
    from repro.oclc import vectorize_kernel

    text, _ = expr
    src = (
        "__kernel void k(__global int *out, const int x, const int y)"
        f"{{ size_t i = get_global_id(0); out[i] = {text} + (int)i; }}"
    )
    program = compile_source(src)
    a = np.zeros(8, dtype=np.int32)
    b = np.zeros(8, dtype=np.int32)
    args_a = {"out": BufferArg(a), "x": np.int32(x), "y": np.int32(y)}
    args_b = {"out": BufferArg(b), "x": np.int32(x), "y": np.int32(y)}
    run_kernel(program, "k", (8,), args_a)
    vectorize_kernel(program).run((8,), args_b)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# crash-freedom: arbitrary garbage must raise a *front-end* error, never
# an unhandled exception
# ---------------------------------------------------------------------------

_TOKENS = [
    "__kernel", "void", "int", "double", "for", "if", "else", "return",
    "(", ")", "{", "}", "[", "]", ";", ",", "+", "-", "*", "/", "=", "<",
    ">", "a", "b", "i", "0", "1", "42", "1.5", "get_global_id",
    "__global", "const", "#pragma unroll", "++", "&&",
]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=40))
def test_parser_never_crashes_on_token_soup(tokens):
    source = " ".join(tokens)
    try:
        parse(source)
    except OclcError:
        pass  # rejecting garbage is correct
    except ValueError as exc:
        # TranslationUnit.kernel() style errors only surface later; the
        # parser itself may legitimately raise nothing at all here
        pytest.fail(f"unexpected ValueError: {exc}")


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=60))
def test_compiler_never_crashes_on_arbitrary_text(text):
    try:
        compile_source(text)
    except ReproError:
        pass
    except RecursionError:  # pragma: no cover
        pytest.fail("parser recursion blow-up")


# ---------------------------------------------------------------------------
# float oracle: double-precision arithmetic matches numpy bit-for-bit
# ---------------------------------------------------------------------------

_FLOAT_OPS = ["+", "-", "*", "/"]


@st.composite
def float_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            v = draw(
                st.floats(
                    min_value=-100, max_value=100, allow_nan=False, width=32
                )
            )
            return f"({v!r})", (lambda env, v=v: np.float64(v))
        name = draw(st.sampled_from(["x", "y"]))
        return name, (lambda env, name=name: env[name])
    op = draw(st.sampled_from(_FLOAT_OPS))
    lt, lf = draw(float_exprs(depth=depth + 1))
    rt, rf = draw(float_exprs(depth=depth + 1))

    def fn(env, op=op, lf=lf, rf=rf):
        a, b = lf(env), rf(env)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return {
                "+": lambda: np.float64(a + b),
                "-": lambda: np.float64(a - b),
                "*": lambda: np.float64(a * b),
                "/": lambda: np.float64(a / b),
            }[op]()

    return f"({lt} {op} {rt})", fn


@settings(max_examples=50, deadline=None)
@given(
    float_exprs(),
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=32),
    st.floats(min_value=0.5, max_value=50, allow_nan=False, width=32),
)
def test_interpreter_matches_numpy_float_oracle(expr, x, y):
    text, fn = expr
    src = (
        "__kernel void k(__global double *out, const double x, const double y)"
        f"{{ out[0] = {text}; }}"
    )
    program = compile_source(src)
    out = np.zeros(1, dtype=np.float64)
    run_kernel(
        program, "k", (1,),
        {"out": BufferArg(out), "x": np.float64(x), "y": np.float64(y)},
    )
    want = fn({"x": np.float64(x), "y": np.float64(y)})
    if np.isnan(want):
        assert np.isnan(out[0]), text
    else:
        np.testing.assert_array_equal(out[0], want, err_msg=text)
