"""Dense numeric kernels: cosine similarity, norms, the sign-fixed QR
that draws random frames, and the full-rank test of a matrix to be
inverted, with a cheaper screen in front of it for the triangular R of
a QR.

All functions are pure and operate on float64 numpy arrays.  Vectors are
1-d arrays, matrices 2-d row-major arrays, stacks 3-d.  Inputs from
outside are validated for finiteness so that NaN/Inf never propagates
silently into an experiment.

The row-wise kernels make one BLAS call per row through a stacked
``matmul``, so row j of a result equals the one-vector computation bit
for bit, whatever the number of rows.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ZeroNormInput


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {v.shape}")
    check_finite(v, "vector")
    return v


def as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {a.shape}")
    check_finite(a, "matrix")
    return a


def check_finite(x, name: str) -> None:
    """Raise ValueError unless every entry of the array ``x`` is finite."""
    if not np.isfinite(x).all():
        raise ValueError(f"{name} entries must be finite")


def check_shape(x, shape: tuple, name: str) -> None:
    """Raise DimensionMismatch unless ``x`` has ``shape``, in which None
    matches any length; the values are not read."""
    got = np.shape(x)
    if len(got) != len(shape) or any(w is not None and g != w for g, w in zip(got, shape)):
        want = " x ".join("*" if w is None else str(w) for w in shape)
        raise DimensionMismatch(f"{name} must have shape ({want}), got {got}")


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry j is ``a[j] @ b[j]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """Entry j is ``np.linalg.norm(a[j])``: the Frobenius norm for a stack."""
    flat = a.reshape(a.shape[0], -1)
    return np.sqrt(row_dots(flat, flat))


def matvec_rows(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row j is ``a[j // r] @ x[j]`` for a (groups x p x n) stack ``a``,
    where r = len(x) / groups consecutive rows share one matrix.  An
    empty stack gives an empty (0 x p) result."""
    groups, p, n = a.shape
    return (a[:, None] @ x.reshape(groups, len(x) // max(groups, 1), n, 1)).reshape(-1, p)


def zero_pad(values, n: int) -> np.ndarray:
    """Append zeros to the last axis up to length ``n``."""
    v = np.asarray(values, dtype=float)
    if v.shape[-1] > n:
        raise ValueError(f"cannot pad length {v.shape[-1]} down to {n}")
    if v.shape[-1] == n:
        return v
    out = np.zeros(v.shape[:-1] + (n,))
    out[..., : v.shape[-1]] = v
    return out


def row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of each row pair, in [-1, 1]; a zero row raises
    ZeroNormInput.

    A pair whose squared norms leave float64's normal range (a norm below
    2**-511 or a product of norms that overflows) is computed again from
    both rows scaled by powers of two, which puts each row's largest
    entry in [1/2, 1); the cosine does not depend on the scale.  numpy
    may warn about such a pair's overflow before it is computed again;
    where its warnings are raised as errors, the call is made again with
    them off.  Every other pair is the plain dot over the product of
    norms."""
    try:
        dots, na, nb = row_dots(a, b), row_norms(a), row_norms(b)
        den = na * nb
    except (RuntimeWarning, FloatingPointError):
        with np.errstate(all="ignore"):
            return row_cosines(a, b)
    low = np.minimum(na, nb)
    if low.min(initial=np.inf) < _NORM_MIN or den.max(initial=0.0) == np.inf:
        redo = np.flatnonzero((low < _NORM_MIN) | (den == np.inf))
        sa, sb = _unit_scaled(a[redo]), _unit_scaled(b[redo])
        dots[redo] = row_dots(sa, sb)
        den[redo] = row_norms(sa) * row_norms(sb)
    return (dots / den).clip(-1.0, 1.0)


# The smallest norm whose square is a normal float64.
_NORM_MIN = 2.0**-511


def _unit_scaled(a: np.ndarray) -> np.ndarray:
    """Each row of ``a`` times the power of two that puts its largest
    magnitude in [1/2, 1); an all-zero row raises ZeroNormInput."""
    top = np.abs(a).max(axis=1)
    if not top.all():
        raise ZeroNormInput("cosine is undefined for a zero-norm vector")
    return np.ldexp(a, -np.frexp(top)[1][:, None])


def cosine(a, b) -> float:
    """Cosine similarity of two vectors of equal length."""
    va, vb = as_vector(a), as_vector(b)
    if va.shape != vb.shape:
        raise DimensionMismatch(f"lengths differ: {va.size} vs {vb.size}")
    return float(row_cosines(va[None], vb[None])[0])


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(as_matrix(a), ord="fro"))


def sign_fixed_qr(a) -> np.ndarray:
    """The Q of the reduced QR of a matrix, or of each of a stack, with
    its columns' signs flipped so diag(R) is nonnegative, which makes the
    factor unique and, for Gaussian input, uniformly distributed over
    frames (Mezzadri, Notices AMS 2007).  Householder QR gives Q
    orthonormal columns whatever the rank of the input, so no rank test
    is made."""
    q, r = np.linalg.qr(a)
    q *= r_diagonal_signs(r)[0][..., None, :]    # in place: a second stack would raise asup's peak memory
    return q


def r_diagonal_signs(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the R factor of a QR, or each of a stack: the signs that make
    diag(R) nonnegative (+1 for a zero), and whether R is numerically
    full rank (its smallest diagonal magnitude above 1e-12 times its
    largest)."""
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    signs = np.sign(diag)
    signs[signs == 0] = 1.0
    return signs, mag.min(axis=-1) > 1e-12 * np.maximum(mag.max(axis=-1), 1e-300)


def full_rank(a: np.ndarray) -> np.ndarray:
    """Whether a matrix, or each matrix of a stack, has full rank
    k = min(rows, cols), from its singular values with the threshold
    ``matrix_rank`` applies to its k x k Gram matrix:
    s_min^2 > s_max^2 * k * eps."""
    sv = np.linalg.svd(a, compute_uv=False)
    return sv[..., -1] ** 2 > sv[..., 0] ** 2 * (sv.shape[-1] * np.finfo(float).eps)


# The screen's acceptance level: a factor 1e3 below full_rank's threshold.
RANK_SCREEN = 1e-3


def triangular_full_rank(r: np.ndarray) -> np.ndarray:
    """:func:`full_rank` of each k x k upper triangular matrix of a stack,
    such as the R of a QR, with the SVD run only on the matrices a
    cheaper screen does not accept.  The mask equals ``full_rank(r)``.

    The screen accepts R when ||R||_F^2 ||X||_F^2 k eps < c = RANK_SCREEN,
    X the :func:`triangular_inverse` of R.  In exact arithmetic s_max <=
    ||R||_F and 1 / s_min <= ||R^-1||_F, so s_max^2 / s_min^2 * k eps <=
    c < 1.  Rounding cannot flip that:

    * Back-substitution is backward stable in any summation order
      (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      Thm 8.5): column i of X solves (R + dR_i) x = e_i with |dR_i| <=
      gamma_k |R|, gamma_k = k eps / (1 - k eps).  So ||R^-1 - X||_F <=
      ||R^-1||_F gamma_k ||R||_F ||X||_F, and on acceptance ||R||_F
      ||X||_F < sqrt(c / (k eps)), which puts ||R^-1||_F within a factor
      1 + sqrt(c k eps) (about 1 + 1e-8 at k = 500) of ||X||_F.
    * The SVD moves each singular value by at most p(k) eps s_max, with
      p(k) a low-degree polynomial: far below s_min >= s_max sqrt(k eps
      / c), about 30 s_max sqrt(k eps).  So the SVD's own s_min^2 /
      s_max^2 stays above about k eps / c, 1e3 times full_rank's
      threshold.

    Each matrix is screened on its own: a zero or subnormal pivot, or
    any other non-finite inverse or norm, fails the test, and only the
    matrices that fail it go to ``full_rank``."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = triangular_inverse(r)
        ok = (np.einsum("ijk,ijk->i", r, r) * np.einsum("ijk,ijk->i", x, x)
              * (r.shape[-1] * np.finfo(float).eps) < RANK_SCREEN)
    if not ok.all():
        ok[~ok] = full_rank(r[~ok])
    return ok


def triangular_inverse(r: np.ndarray) -> np.ndarray:
    """The inverse of each k x k upper triangular matrix of a stack, by
    back-substitution over the whole stack, a row of every inverse per
    step; row i has nonzeros only from column i on.  Each matrix's
    inverse depends on that matrix alone: a zero pivot gives inf or NaN
    entries in its own inverse only, with numpy's divide, overflow and
    invalid warnings, which the caller may silence."""
    k = r.shape[-1]
    x = np.zeros_like(r)
    eye = np.eye(k)
    for i in range(k - 1, -1, -1):
        done = (r[:, i, None, i + 1:] @ x[:, i + 1:, i:])[:, 0]
        x[:, i, i:] = (eye[i, i:] - done) / r[:, i, i, None]
    return x
