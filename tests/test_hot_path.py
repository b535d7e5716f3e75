"""The validation and norm helpers on the solvers' hot path.

``core.as_vector`` returns a plain 1-D float64 ndarray without converting it;
every other input it accepts must come out exactly as from the original
conversion, which ``_reference_as_vector`` keeps.  (It refuses a bool or a
complex array, which the original conversion took: see
``test_parameters.BAD_INPUTS``.)  ``core.norm`` must equal
``np.linalg.norm`` bit for bit, so that solver iterates and stopping
decisions do not move.
"""

import warnings

import numpy as np
import pytest

from proxsplit.core import InvalidInputError, as_vector, norm


def _reference_as_vector(x, dim=None):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise InvalidInputError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise InvalidInputError(f"expected a vector of dimension {dim}, got {v.size}")
    return v


class _Tagged(np.ndarray):
    pass


def _converted_inputs():
    base = np.arange(12, dtype=float) - 3.5
    tagged_dtype = np.dtype(np.float64, metadata={"unit": "m"})
    return {
        "list": [1.0, -2.0, 3.5],
        "int list": [1, 2, 3],
        "python float": 2.5,
        "python int": 7,
        "numpy scalar": np.float64(-1.25),
        "0-d array": np.array(4.0),
        "0-d int array": np.array(4),
        "int array": np.arange(5),
        "float32 array": np.linspace(-1.0, 1.0, 7, dtype=np.float32),
        "big-endian": base.astype(">f8"),
        "little-endian": base.astype("<f8"),
        "subclass": base.view(_Tagged),
        "masked": np.ma.array(base, mask=base > 2.0),
        "strided view": base[::3],
        "reversed view": base[::-1],
        "read-only": np.frombuffer(base.tobytes(), dtype=float),
        "dtype with metadata": np.array(base, dtype=tagged_dtype),
        "tuple": (0.5, 0.25),
        "empty list": [],
    }


@pytest.mark.parametrize("name", sorted(_converted_inputs()))
def test_conversion_matches_reference(name):
    x = _converted_inputs()[name]
    got = as_vector(x)
    ref = _reference_as_vector(x)
    assert type(got) is type(ref) is np.ndarray
    assert got.dtype == ref.dtype and got.dtype.isnative
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    assert (got is x) == (ref is x)
    if isinstance(x, np.ndarray):
        assert np.shares_memory(got, x) == np.shares_memory(ref, x)


@pytest.mark.parametrize(
    "x",
    [np.zeros(4), np.arange(6, dtype=float)[1:5], np.arange(9, dtype=float)[::2], np.empty(0)],
    ids=["contiguous", "slice", "strided", "empty"],
)
def test_float64_vector_is_returned_as_is(x):
    assert as_vector(x) is x
    assert as_vector(x, x.size) is x


@pytest.mark.parametrize(
    "x, dim, message",
    [
        (np.array([1.0, np.nan]), None, "vector entries must be finite"),
        (np.array([np.inf, 0.0]), None, "vector entries must be finite"),
        (np.array([0.0, -np.inf])[::-1], None, "vector entries must be finite"),
        ([1.0, float("nan")], None, "vector entries must be finite"),
        (np.float32(np.inf), None, "vector entries must be finite"),
        (np.ones((2, 3)), None, "expected a 1-D vector, got shape (2, 3)"),
        (np.ones((1, 1, 1)), None, "expected a 1-D vector, got shape (1, 1, 1)"),
        ([[1.0, 2.0]], None, "expected a 1-D vector, got shape (1, 2)"),
        (np.ones(3), 4, "expected a vector of dimension 4, got 3"),
        ([1.0, 2.0], 1, "expected a vector of dimension 1, got 2"),
        (np.ones((2, 2)) * np.nan, None, "expected a 1-D vector, got shape (2, 2)"),
        (np.array([np.nan]), 5, "vector entries must be finite"),
    ],
)
def test_rejections_keep_their_messages(x, dim, message):
    with pytest.raises(InvalidInputError) as got:
        as_vector(x, dim)
    with pytest.raises(InvalidInputError) as ref:
        _reference_as_vector(x, dim)
    assert str(got.value) == str(ref.value) == message


def test_huge_finite_entries_pass_without_warnings():
    x = np.array([1e308, 1e308, -1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert as_vector(x) is x
        assert as_vector([1e308, 1e308]).tolist() == [1e308, 1e308]


def _norm_cases():
    rng = np.random.default_rng(5)
    base = rng.standard_normal(4000)
    cases = [
        base,
        base[7:1500],
        np.empty(0),
        np.zeros(3),
        np.array([-2.5]),
        1e-150 * rng.standard_normal(300),
        1e150 * rng.standard_normal(300),
        np.array([1e-170, 3e-160]),
        base[::-1],
        base[::-1][::3],
    ]
    for step in (2, 3, 5, 17):
        for start in range(3):
            cases.append(base[start::step])
            cases.append(base[start : start + 200 : step])
    # many short strided views, where summation order decides the last bit
    for _ in range(2000):
        n = int(rng.integers(1, 120))
        step = int(rng.integers(2, 6))
        v = rng.standard_normal(n * step) * 10.0 ** rng.uniform(-3, 3)
        cases.append(v[::step])
    return cases


def test_norm_is_bit_identical_to_numpy():
    for v in _norm_cases():
        got = norm(v)
        assert type(got) is float
        assert got == float(np.linalg.norm(v)), (v.size, v.strides)
        assert np.float64(got).tobytes() == np.linalg.norm(v).tobytes()


def test_norm_overflow_matches_numpy():
    v = np.array([1e154, 1e154])
    with pytest.warns(RuntimeWarning, match="overflow"):
        ref = np.linalg.norm(v)
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = norm(v)
    assert got == ref == np.inf
