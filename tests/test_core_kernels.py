"""Kernel reference semantics and STREAM validation."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, KernelName
from repro.core.kernels import KERNELS, SCALAR_Q, initial_arrays, reference
from repro.core.validate import EPSILON, validate_solution
from repro.errors import ValidationError
from repro.units import KIB


class TestSpecs:
    def test_reads_writes(self):
        assert KERNELS[KernelName.COPY].reads == ("a",)
        assert KERNELS[KernelName.COPY].writes == "c"
        assert KERNELS[KernelName.SCALE].reads == ("c",)
        assert KERNELS[KernelName.SCALE].writes == "b"
        assert KERNELS[KernelName.ADD].reads == ("a", "b")
        assert KERNELS[KernelName.TRIAD].reads == ("b", "c")

    def test_scalar_usage(self):
        assert KERNELS[KernelName.SCALE].uses_scalar
        assert KERNELS[KernelName.TRIAD].uses_scalar
        assert not KERNELS[KernelName.COPY].uses_scalar


class TestInitialArrays:
    @pytest.mark.parametrize("dtype", list(DataType))
    def test_stream_initial_values(self, dtype):
        arrays = initial_arrays(64, dtype)
        assert np.all(arrays["a"] == 1)
        assert np.all(arrays["b"] == 2)
        assert np.all(arrays["c"] == 0)
        assert arrays["a"].dtype.itemsize == dtype.size


class TestReference:
    def test_copy(self):
        arrays = initial_arrays(8, DataType.INT)
        out = reference(KernelName.COPY, arrays)
        assert np.all(out["c"] == 1)
        assert np.all(arrays["c"] == 0)  # input untouched

    def test_scale(self):
        out = reference(KernelName.SCALE, initial_arrays(8, DataType.INT))
        assert np.all(out["b"] == 0)  # q * c = 3 * 0

    def test_add(self):
        out = reference(KernelName.ADD, initial_arrays(8, DataType.INT))
        assert np.all(out["c"] == 3)

    def test_triad(self):
        out = reference(KernelName.TRIAD, initial_arrays(8, DataType.DOUBLE))
        assert np.all(out["a"] == 2 + SCALAR_Q * 0)

    def test_touched_words_limits_region(self):
        arrays = initial_arrays(8, DataType.INT)
        out = reference(KernelName.COPY, arrays, touched_words=4)
        assert np.all(out["c"][:4] == 1)
        assert np.all(out["c"][4:] == 0)


class TestValidate:
    def test_accepts_exact_match(self):
        observed = reference(KernelName.ADD, initial_arrays(16, DataType.INT))
        validate_solution(KernelName.ADD, DataType.INT, observed, word_count=16)

    def test_rejects_single_wrong_word(self):
        observed = reference(KernelName.ADD, initial_arrays(16, DataType.INT))
        observed["c"][7] += 1
        with pytest.raises(ValidationError) as err:
            validate_solution(KernelName.ADD, DataType.INT, observed, word_count=16)
        assert "word 7" in str(err.value)

    def test_double_epsilon_tolerates_rounding(self):
        observed = reference(KernelName.TRIAD, initial_arrays(16, DataType.DOUBLE))
        observed["a"] *= 1.0 + 1e-15  # below epsilon
        validate_solution(KernelName.TRIAD, DataType.DOUBLE, observed, word_count=16)

    def test_double_epsilon_rejects_drift(self):
        observed = reference(KernelName.TRIAD, initial_arrays(16, DataType.DOUBLE))
        observed["a"] *= 1.0 + 1e-6
        with pytest.raises(ValidationError):
            validate_solution(
                KernelName.TRIAD, DataType.DOUBLE, observed, word_count=16
            )

    def test_shape_mismatch(self):
        full = reference(KernelName.COPY, initial_arrays(16, DataType.INT))
        observed = {k: v[:8].copy() for k, v in full.items()}
        with pytest.raises(ValidationError):
            validate_solution(KernelName.COPY, DataType.INT, observed, word_count=16)

    def test_partial_region_validation(self):
        initial = initial_arrays(16, DataType.INT)
        observed = reference(KernelName.COPY, initial, touched_words=10)
        validate_solution(
            KernelName.COPY, DataType.INT, observed, word_count=16, touched_words=10
        )
        # but claiming full coverage fails: the tail was never written
        with pytest.raises(ValidationError):
            validate_solution(KernelName.COPY, DataType.INT, observed, word_count=16)

    @pytest.mark.parametrize("dtype", [DataType.FLOAT, DataType.DOUBLE])
    @pytest.mark.parametrize(
        "name, word",
        [("a", 3), ("c", 5), ("a", 13)],
        ids=["touched-head", "untouched-input", "untouched-tail"],
    )
    def test_nan_is_never_within_tolerance(self, dtype, name, word):
        # every comparison with NaN is False, so a "beyond tolerance"
        # test lets it through; TRIAD writes a[:10], reads c, leaves a[10:]
        observed = reference(
            KernelName.TRIAD, initial_arrays(16, dtype), touched_words=10
        )
        observed[name][word] = np.nan
        with pytest.raises(ValidationError, match=f"diverges at word {word}: got"):
            validate_solution(
                KernelName.TRIAD, dtype, observed, word_count=16, touched_words=10
            )


def _full_array_check(kernel, dtype, observed, words, touched):
    """The full-array validation the closed form replaced: the message
    of the first failing array, or None when every word is in tolerance."""
    expected = reference(kernel, initial_arrays(words, dtype), touched_words=touched)
    eps = EPSILON[dtype]
    for name in ("a", "b", "c"):
        want, got = expected[name], observed[name]
        if eps == 0.0:
            bad = np.nonzero(got != want)[0]
        else:
            # "not within", so a NaN word is wrong
            denom = np.maximum(np.abs(want), 1.0)
            bad = np.nonzero(~(np.abs(got - want) <= eps * denom))[0]
        if bad.size:
            i = int(bad[0])
            return (
                f"kernel {kernel}: array {name!r} diverges at word {i}: "
                f"got {got[i]!r}, expected {want[i]!r} "
                f"({bad.size} of {want.size} words wrong)"
            )
    return None


_WORDS = 24

_KERNELS = pytest.mark.parametrize(
    "kernel", list(KernelName), ids=lambda k: k.value
)
_REGIONS = pytest.mark.parametrize("touched", [None, 17], ids=["full", "ragged"])


def _state(kernel, dtype, touched):
    return reference(kernel, initial_arrays(_WORDS, dtype), touched_words=touched)


def _validate(kernel, dtype, observed, touched):
    validate_solution(kernel, dtype, observed, word_count=_WORDS, touched_words=touched)


@_REGIONS
@pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
@_KERNELS
def test_closed_form_accepts_exact_reference_state(kernel, dtype, touched):
    _validate(kernel, dtype, _state(kernel, dtype, touched), touched)


@_REGIONS
@pytest.mark.parametrize(
    "dtype", [DataType.FLOAT, DataType.DOUBLE], ids=lambda d: d.value
)
@_KERNELS
def test_closed_form_accepts_drift_below_epsilon(kernel, dtype, touched):
    observed = _state(kernel, dtype, touched)
    for arr in observed.values():
        arr += EPSILON[dtype] / 4 * np.maximum(np.abs(arr), 1.0)
    assert _full_array_check(kernel, dtype, observed, _WORDS, touched) is None
    _validate(kernel, dtype, observed, touched)


@pytest.mark.parametrize(
    "touched, word",
    [(None, 5), (17, 5), (17, _WORDS - 2)],
    ids=["full-head", "ragged-head", "ragged-tail"],
)
@pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
@_KERNELS
def test_closed_form_rejects_one_wrong_word_as_before(kernel, dtype, touched, word):
    for name in ("a", "b", "c"):
        observed = _state(kernel, dtype, touched)
        observed[name][word] += 7
        want = _full_array_check(kernel, dtype, observed, _WORDS, touched)
        assert want is not None
        assert f"array {name!r} diverges at word {word}:" in want
        assert want.endswith(f"(1 of {_WORDS} words wrong)")
        with pytest.raises(ValidationError) as err:
            _validate(kernel, dtype, observed, touched)
        assert str(err.value) == want


def _assert_same_verdict(kernel, dtype, observed, touched):
    """``validate_solution`` passes exactly when the full-array rule
    does, and otherwise raises its message."""
    want = _full_array_check(kernel, dtype, observed, _WORDS, touched)
    if want is None:
        _validate(kernel, dtype, observed, touched)
    else:
        with pytest.raises(ValidationError) as err:
            _validate(kernel, dtype, observed, touched)
        assert str(err.value) == want


def _just_beyond(want, eps, sign):
    """The word nearest ``want`` on side ``sign`` outside its tolerance."""
    if eps == 0.0:
        return want + want.dtype.type(sign)
    toward = want.dtype.type(sign * np.inf)

    def within(x):
        return abs(x - want) <= eps * max(abs(want), 1.0)

    x = want.dtype.type(want + sign * eps * max(abs(want), 1.0))
    while within(x):
        x = np.nextafter(x, toward)
    while not within(np.nextafter(x, -toward)):
        x = np.nextafter(x, -toward)
    return x


def _corruptions(want, dtype):
    eps = EPSILON[dtype]
    values = [_just_beyond(want, eps, +1), _just_beyond(want, eps, -1)]
    if eps == 0.0:
        info = np.iinfo(want.dtype)
        return values + [want.dtype.type(info.min), want.dtype.type(info.max)]
    return values + [want.dtype.type(v) for v in (np.nan, np.inf, -np.inf, -0.0)]


@pytest.mark.parametrize(
    "touched", [None, 17, 0], ids=["empty-tail", "ragged", "empty-head"]
)
@pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
@_KERNELS
def test_extremes_give_the_full_array_verdict(kernel, dtype, touched):
    # one bad word at the first and last word of the head and of the
    # tail: NaN, infinities, -0.0, and one ulp beyond tolerance on each
    # side (integers: one off, and the type's extremes)
    n = _WORDS if touched is None else touched
    words = sorted({0, n - 1, n, _WORDS - 1} & set(range(_WORDS)))
    for name in ("a", "b", "c"):
        for word in words:
            want = _state(kernel, dtype, touched)[name][word]
            for value in _corruptions(want, dtype):
                observed = _state(kernel, dtype, touched)
                observed[name][word] = value
                _assert_same_verdict(kernel, dtype, observed, touched)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extremes_agree_with_the_full_array_rule_on_random_corruptions(data):
    kernel = data.draw(st.sampled_from(list(KernelName)))
    dtype = data.draw(st.sampled_from(list(DataType)))
    touched = data.draw(st.none() | st.integers(0, _WORDS))
    observed = _state(kernel, dtype, touched)
    # near misses are drawn around the uncorrupted word, also when an
    # earlier draw already corrupted it (to NaN or an integer extreme)
    clean = _state(kernel, dtype, touched)
    eps = EPSILON[dtype]
    for _ in range(data.draw(st.integers(1, 4))):
        name = data.draw(st.sampled_from("abc"))
        arr = observed[name]
        word = data.draw(st.integers(0, _WORDS - 1))
        want = clean[name][word]
        if eps == 0.0:
            info = np.iinfo(arr.dtype)
            value = data.draw(
                st.integers(-3, 3).map(lambda k: int(want) + k)
                | st.integers(int(info.min), int(info.max))
            )
        else:
            tol = 4 * eps * max(abs(float(want)), 1.0)
            value = data.draw(
                st.floats(-tol, tol).map(lambda d: float(want) + d)
                | st.floats(width=8 * arr.dtype.itemsize)
            )
        arr[word] = value
    _assert_same_verdict(kernel, dtype, observed, touched)


@pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
def test_validation_allocates_no_array(dtype):
    words = 512 * KIB // dtype.size
    observed = reference(
        KernelName.TRIAD, initial_arrays(words, dtype), touched_words=words - 7
    )
    tracemalloc.start()
    try:
        validate_solution(
            KernelName.TRIAD,
            dtype,
            observed,
            word_count=words,
            touched_words=words - 7,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * KIB
