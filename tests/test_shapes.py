"""The shape contract of the public array functions.

Each call either returns finite arrays of its documented shape or
raises a ``PrivsanError`` or ``ValueError``; an ``IndexError``, a
``TypeError``, a non-finite result or a result of another shape fails.
Hypothesis draws the inputs, valid or not: 1-d arrays where rows are
due, mismatched widths, stream counts other than the row count, betas of
the wrong count or value, and arrays with one NaN or infinite entry.  A
valid call must return.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsan import attack as atk
from privsan import sanitize as san
from privsan.errors import PrivsanError
from privsan.metrics import breach_count, utility_scores
from privsan.rng import Rng

CONTRACT = settings(max_examples=150, deadline=None, database=None)
DIST = st.sampled_from(list(san.EntryDistribution))
SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(1, 5)


def outcome(call):
    """The shape of the call's result, a tuple of shapes for a tuple of
    arrays, or None when the call raised a PrivsanError or ValueError."""
    try:
        result = call()
    except (PrivsanError, ValueError):
        return None
    arrays = result if isinstance(result, tuple) else (result,)
    assert all(np.isfinite(a).all() for a in arrays)
    if isinstance(result, tuple):
        return tuple(np.shape(a) for a in result)
    return np.shape(result)


@st.composite
def shaped(draw, shape):
    """A shape near ``shape``: itself (most often), flattened to 1-d or
    raised to 2-d, or with one length off by one or two."""
    kind = draw(st.sampled_from(["same"] * 4 + ["ndim", "last", "first"]))
    if kind == "ndim":
        return shape[-1:] if len(shape) == 2 else (1,) + shape
    if kind == "same" or (kind == "first" and len(shape) < 2):
        return shape
    axis = -1 if kind == "last" else 0
    changed = list(shape)
    changed[axis] += draw(st.sampled_from([-1, 1] if changed[axis] > 1 else [1, 2]))
    return tuple(changed)


@st.composite
def arrays(draw, shape):
    """A standard-normal array of a shape drawn by :func:`shaped`; now and
    then one of its entries is NaN or infinite."""
    a = Rng(draw(SEEDS)).standard_normal(draw(shaped(shape)))
    if draw(st.integers(0, 4)) == 0:
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return a


def finite(*xs) -> bool:
    """Whether every entry of every array given is finite."""
    return all(np.isfinite(x).all() for x in xs)


def rows_of(x, width=None) -> bool:
    """Whether ``x`` is a 2-d array of rows, of ``width`` when given."""
    return x.ndim == 2 and (width is None or x.shape[1] == width)


@CONTRACT
@given(st.data(), DIMS, DIMS, DIMS, st.integers(1, 3), DIST)
def test_nrp(data, groups, n, m, per, dist):
    y = data.draw(arrays((groups * per, n)))
    rows_per_matrix = data.draw(st.sampled_from([per, per + 1]))
    count = data.draw(st.none() | st.just(groups) | st.sampled_from([groups - 1, groups + 1]))
    b = None if count is None else np.full(count, 1.5)
    if count and data.draw(st.booleans()):
        b[data.draw(st.integers(0, count - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, 0.0, -1.0]))
    matrices = len(y) // rows_per_matrix if rows_of(y) else 0
    valid = (rows_of(y) and finite(y) and m <= y.shape[1] and len(y) % rows_per_matrix == 0
             and (b is None or (len(b) == matrices and np.all(b == 1.5))))
    expected = (len(y), m) if valid else None
    got = outcome(lambda: san.nrp(y, m, Rng(0), dist, b, rows_per_matrix))
    assert got == expected


@CONTRACT
@given(st.data(), DIMS, DIMS, DIMS)
def test_brp_pca_identity(data, rows, n, m):
    y = data.draw(arrays((rows, n)))
    matrix = data.draw(arrays((n, m)))
    mean = data.draw(arrays((n,)))
    projects = rows_of(y) and rows_of(matrix) and y.shape[1] == len(matrix) and finite(matrix)
    expected = (len(y), matrix.shape[1]) if projects and finite(y) else None
    assert outcome(lambda: san.brp(y, matrix)) == expected
    centred = projects and mean.shape == (y.shape[1],) and finite(y, mean)
    assert outcome(lambda: san.pca(y, matrix, mean)) == (expected if centred else None)
    assert outcome(lambda: san.identity(y)) == (y.shape if finite(y) else None)


@CONTRACT
@given(st.data(), DIMS, DIMS, st.sets(st.integers(0, 6)), st.floats(0.0, 2.0))
def test_asup(data, rows, n, private, scale):
    y = data.draw(arrays((rows, n)))
    valid = rows_of(y) and finite(y) and all(i < y.shape[1] for i in private)
    expected = y.shape if valid else None
    assert outcome(lambda: san.asup(y, scale, private, Rng(0))) == expected


def test_asup_scale_must_be_finite_and_nonnegative():
    # A NaN or infinite scale must raise like a negative one, not give
    # non-finite rows.
    y = np.ones((2, 3))
    for scale in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_scale"):
            san.asup(y, scale, [0, 1], Rng(0))


@CONTRACT
@given(st.data(), DIMS, DIMS, DIMS, DIST)
def test_random_inverse(data, rows, n, m, dist):
    s = data.draw(arrays((rows, m)))
    count = data.draw(st.sampled_from([len(s), len(s) + 1, max(len(s) - 1, 0)]))
    streams = [Rng(1).child(j) for j in range(count)]
    valid = rows_of(s) and finite(s) and s.shape[1] <= n and count == len(s)
    expected = (len(s), n) if valid else None
    assert outcome(lambda: atk.random_inverse(s, n, dist, streams)) == expected


@CONTRACT
@given(st.data(), DIMS, DIMS, DIMS, st.booleans(), st.booleans())
def test_known_matrix_and_linear(data, rows, n, m, with_mean, mean_in_tuple):
    s = data.draw(arrays((rows, m)))
    matrix = data.draw(arrays((n, m)))
    mean = data.draw(arrays((n,))) if with_mean else None
    fits = rows_of(s) and rows_of(matrix) and s.shape[1] == matrix.shape[1] and finite(s, matrix)
    valid = fits and (mean is None or (mean.shape == matrix.shape[:1] and finite(mean)))
    expected = (len(s), len(matrix)) if valid else None
    assert outcome(lambda: atk.known_matrix(s, matrix, mean, mean_in_tuple)) == expected
    # Any 2-d map is valid for ``linear``.
    expected = (len(s), len(matrix)) if fits else None
    assert outcome(lambda: atk.linear(s, matrix)) == expected


@CONTRACT
@given(st.data(), DIMS, DIMS, DIMS, st.booleans())
def test_utility_scores(data, rows, n, m, same_quadrant):
    actual = data.draw(arrays((rows, n)))
    sanitized = data.draw(arrays((rows, min(m, n))))
    valid = (rows_of(actual) and rows_of(sanitized) and len(actual) == len(sanitized)
             and sanitized.shape[1] <= actual.shape[1] and finite(actual, sanitized))
    expected = ((len(actual),), (len(actual),)) if valid else None
    assert outcome(lambda: utility_scores(actual, sanitized, same_quadrant)) == expected


def test_breach_count_radius_must_be_positive():
    # A NaN radius must raise like 0 does, not score 0.0.
    a = np.ones((3, 2))
    for radius in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="radius_fraction"):
            breach_count(a, a, radius)
