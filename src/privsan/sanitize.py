"""Sanitization mechanisms behind one common contract.

Five mechanisms, each one function from a (tuples x n) array of rows to
an array of sanitized rows:

* norm-bounded random projection: a fresh bounded-entry matrix per
  tuple, rescaled so its Frobenius norm equals the certificate bound;
* unbounded random projection: same draw, no rescaling (ablation
  baseline);
* fixed orthonormal projection: one column-orthonormal matrix reused
  for every tuple;
* principal-component projection: top eigenvectors of the training
  covariance, applied to centered tuples;
* rotated-noise addition: Gaussian noise on the private coordinates,
  rotated by a fresh random unitary; dimension preserving.

The runner calls these functions; the baselines are array-only, and the
per-tuple ``sanitize_nrp`` and ``sanitize_identity`` make one-row calls.
Projection matrices are plain n x m arrays; only :func:`bounded_projection`
wraps its draw in a :class:`ProjectionMatrix` with the certificate it meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import NormBoundCertificate
from .errors import DegenerateMatrix, DimensionMismatch, InsufficientData
from .linalg import (
    as_matrix,
    as_vector,
    check_finite,
    check_shape,
    frobenius_norm,
    matvec_rows,
    orthonormalize,
    replace_deficient,
    row_norms,
    sign_fixed_qr,
)
from .rng import Rng

SAMPLE_RETRIES = 8
# Draw entries per chunk of nrp and asup (2 MiB of float64), whatever the
# matrix shape: the mechanisms hold one chunk of draws, not the round's.
DRAW_CHUNK = 2**18


class EntryDistribution(str, Enum):
    UNIT_UNIFORM = "unit-uniform"        # iid entries on [0, 1)
    SYMMETRIC_UNIFORM = "symmetric-uniform"  # iid entries on (-1, 1)


@dataclass(frozen=True)
class DataTuple:
    """One raw observation: values of length n plus the positions that are
    private.  Private positions are identical for all agents by
    convention; enforcing that is the caller's job."""

    values: np.ndarray
    private_indices: frozenset[int]
    agent_id: str

    def __post_init__(self):
        object.__setattr__(self, "values", as_vector(self.values))
        bad = [i for i in self.private_indices if not (0 <= i < self.values.size)]
        if bad:
            raise ValueError(f"private indices out of range: {bad}")


@dataclass(frozen=True)
class SanitizedTuple:
    values: np.ndarray
    agent_id: str
    mechanism_tag: str

    def __post_init__(self):
        object.__setattr__(self, "values", as_vector(self.values))


@dataclass(frozen=True)
class ProjectionMatrix:
    """An n x m projection matrix and the certificate its Frobenius norm
    must meet, if any; the norm is measured and checked on construction."""

    matrix: np.ndarray
    bound_certificate: NormBoundCertificate | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix))
        if self.bound_certificate is not None:
            if abs(frobenius_norm(self.matrix) - self.bound_certificate.frobenius_bound) > 1e-12:
                raise ValueError("Frobenius norm does not meet the certificate bound")


def sample_bounded_matrices(count: int, n: int, m: int, distribution: EntryDistribution,
                            rng: Rng, betas: np.ndarray | None = None) -> np.ndarray:
    """``count`` n x m matrices with iid entries from a bounded
    distribution, in one draw from ``rng``; all-zero matrices are
    redrawn (bounded retries).  With ``betas`` matrix i is rescaled so
    its Frobenius norm equals ``betas[i]``.  ``distribution`` may be an
    :class:`EntryDistribution` or its string value.  With ``count=1``, on a
    fresh stream at a :func:`sanitize_nrp` call's address, it replays
    that call's matrix.  Betas are checked as :func:`nrp` checks them."""
    betas = _checked_betas(betas, count)
    a = _uniform(count, n, m, distribution, rng)
    _redraw_zeros(a, np.flatnonzero(~a.any(axis=(1, 2))), distribution, rng)
    if betas is not None:
        a *= (betas / row_norms(a))[:, None, None]
    return a


def _uniform(count: int, n: int, m: int, distribution: EntryDistribution,
             rng: Rng) -> np.ndarray:
    """One draw of ``count`` n x m matrices of iid ``distribution`` entries."""
    low = 0.0 if EntryDistribution(distribution) is EntryDistribution.UNIT_UNIFORM else -1.0
    return rng.uniform(low, 1.0, (count, n, m))


def _redraw_zeros(a: np.ndarray, zero: np.ndarray, distribution: EntryDistribution,
                  rng: Rng) -> None:
    """Redraw, in place, the matrices ``a[zero]`` in one draw, then those
    still all zero, until ``SAMPLE_RETRIES`` draws in all were taken."""
    _, n, m = a.shape
    for _ in range(SAMPLE_RETRIES - 1):
        if zero.size == 0:
            return
        a[zero] = _uniform(zero.size, n, m, distribution, rng)
        zero = zero[~a[zero].any(axis=(1, 2))]
    if zero.size:
        raise DegenerateMatrix(f"all-zero draws {SAMPLE_RETRIES} times in a row")


def sample_bounded_matrix(n: int, m: int, distribution: EntryDistribution, rng: Rng) -> np.ndarray:
    return sample_bounded_matrices(1, n, m, distribution, rng)[0]


def sample_orthonormal_matrix(n: int, m: int, rng: Rng) -> np.ndarray:
    """Uniformly distributed n x m matrix with orthonormal columns."""
    return orthonormalize(rng.standard_normal((n, m)), rng)


def bounded_projection(n: int, m: int, certificate: NormBoundCertificate | None,
                       rng: Rng) -> ProjectionMatrix:
    """Draw a unit-uniform projection matrix; with a certificate the
    matrix is rescaled so its Frobenius norm equals the bound, and its
    measured norm is checked against it."""
    betas = None if certificate is None else np.array([certificate.frobenius_bound])
    a = sample_bounded_matrices(1, n, m, EntryDistribution.UNIT_UNIFORM, rng, betas)[0]
    return ProjectionMatrix(a, certificate)


# Mechanisms on (tuples x n) arrays.

def nrp(y: np.ndarray, m: int, rng: Rng,
        distribution: EntryDistribution = EntryDistribution.UNIT_UNIFORM,
        betas: np.ndarray | None = None, rows_per_matrix: int = 1) -> np.ndarray:
    """Project every row of ``y`` by a bounded-entry matrix, one drawn
    per ``rows_per_matrix`` consecutive rows.  With ``betas`` (one per
    matrix) each is rescaled to that Frobenius norm: the norm-bounded
    mechanism; without, the unbounded ablation.  Returns the projected
    rows only: the matrices are ``sample_bounded_matrices(len(y) //
    rows_per_matrix, ..., betas)`` on ``rng``, and a fresh stream at its
    address draws them again.
    A non-finite entry of ``y``, or a beta that is not finite and
    positive, raises ValueError; betas of another count raise
    DimensionMismatch."""
    y = as_matrix(y)
    betas = _checked_betas(betas, len(y) // max(rows_per_matrix, 1))    # _nrp checks the split
    return _nrp(y, m, rng, distribution, betas, rows_per_matrix)


def _checked_betas(betas, count: int) -> np.ndarray | None:
    """``betas`` as floats, or None; DimensionMismatch unless it holds one
    for each of ``count`` matrices, ValueError unless each is finite and > 0."""
    if betas is not None:
        betas = np.asarray(betas, dtype=float)
        if betas.shape != (count,):
            raise DimensionMismatch(f"need {count} betas, one per matrix, got shape {betas.shape}")
        if not np.all(np.isfinite(betas) & (betas > 0)):
            raise ValueError("betas must be finite and positive")
    return betas


def _nrp(y: np.ndarray, m: int, rng: Rng, distribution: EntryDistribution,
         betas: np.ndarray | None, rows_per_matrix: int) -> np.ndarray:
    """:func:`nrp` on a finite (rows x n) float array.

    The matrices are drawn ``DRAW_CHUNK`` entries at a time, and each
    chunk's rows are projected before the next chunk is drawn.  A chunked
    Philox draw equals one draw, and all-zero matrices are redrawn after
    the last chunk, in row order, so every bit is that of projecting by
    one :func:`sample_bounded_matrices` draw."""
    rows, n = y.shape
    if not (1 <= m <= n):
        raise DimensionMismatch(f"need 1 <= m <= {n}, got {m}")
    if rows_per_matrix < 1 or rows % rows_per_matrix:
        raise DimensionMismatch(
            f"{rows} rows do not split into matrices of rows_per_matrix={rows_per_matrix} rows")
    count, r = rows // rows_per_matrix, rows_per_matrix
    per = max(1, DRAW_CHUNK // (n * m))
    out = np.empty((rows, m))
    zero = []
    for lo in range(0, count, per):
        a = _uniform(min(per, count - lo), n, m, distribution, rng)
        hi = lo + len(a)
        found = np.flatnonzero(~a.any(axis=(1, 2)))
        if found.size:
            zero.append(lo + found)
            a[found] = 1.0    # a stand-in: its rows are projected again below
        out[lo * r:hi * r] = _project(a, y[lo * r:hi * r], None if betas is None else betas[lo:hi])
    if zero:
        zero = np.concatenate(zero)
        a = np.empty((zero.size, n, m))
        _redraw_zeros(a, np.arange(zero.size), distribution, rng)
        at = (zero[:, None] * r + np.arange(r)).ravel()
        out[at] = _project(a, y[at], None if betas is None else betas[zero])
    return out


def _project(a: np.ndarray, y: np.ndarray, betas: np.ndarray | None) -> np.ndarray:
    """Row j of ``y`` times matrix ``a[j // r]``, r = len(y) / len(a), each
    matrix first rescaled in place to Frobenius norm ``betas[i]`` if given."""
    if betas is not None:
        a *= (betas / row_norms(a))[:, None, None]
    return matvec_rows(np.swapaxes(a, 1, 2), y)


def brp(y: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Project every row by one fixed n x m matrix; rows of another
    width raise DimensionMismatch, and a non-finite entry ValueError."""
    check_shape(matrix, (None, None), "matrix")
    check_shape(y, (None, len(matrix)), "rows")
    check_finite(matrix, "matrix")
    check_finite(y, "rows")
    return matvec_rows(matrix.T[None], y)


def pca(y: np.ndarray, components: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Project every centered row onto the fitted components; a
    non-finite entry raises ValueError."""
    check_shape(mean, y.shape[1:], "mean")
    check_finite(mean, "mean")
    return brp(y - mean, components)


def asup(y: np.ndarray, noise_scale: float, private_indices, rng: Rng) -> np.ndarray:
    """Gaussian noise on the private coordinates of every row, rotated by
    a fresh random unitary per row.  All rows' noise is drawn from
    ``rng`` first, then the rotations, ``DRAW_CHUNK`` entries at a time.

    The noise is zero past k = max(private) + 1, so the rotation Q z
    reads only Q's first k columns: the sign-fixed reduced QR of the
    first k columns of each row's n x n Gaussian draw.  The full draw is
    still made, so the stream is that of forming all of Q.  Frames found
    rank deficient are redrawn after the last chunk, in row order, as
    :func:`~privsan.linalg.orthonormalize` redraws them, so every bit is
    that of one draw of all the rotations.  A non-finite entry of ``y``
    raises ValueError."""
    check_finite(y, "rows")
    if not (0 <= noise_scale < np.inf):
        raise ValueError("noise_scale must be finite and nonnegative")
    rows, n = y.shape
    idx = sorted(private_indices)
    if idx and not (0 <= idx[0] and idx[-1] < n):
        raise ValueError(f"private indices must lie in [0, {n}), got {idx}")
    if noise_scale == 0.0 or not idx:
        return y.copy()
    k = idx[-1] + 1
    z = np.zeros((rows, k))
    z[:, idx] = noise_scale * rng.standard_normal((rows, len(idx)))
    per = max(1, DRAW_CHUNK // (n * n))
    out = np.empty_like(y, dtype=float)
    bad = []
    for lo in range(0, rows, per):
        # The copy lets the n x n draw go before the QR runs.
        g = np.ascontiguousarray(rng.standard_normal((min(per, rows - lo), n, n))[:, :, :k])
        q, full = sign_fixed_qr(g)
        hi = lo + len(q)
        np.add(y[lo:hi], matvec_rows(q, z[lo:hi]), out=out[lo:hi])
        bad.append(lo + np.flatnonzero(~full))
    bad = np.concatenate(bad)
    if bad.size:
        q = replace_deficient(np.empty((bad.size, n, k)), np.zeros(bad.size, dtype=bool), rng)
        out[bad] = y[bad] + matvec_rows(q, z[bad])
    return out


def identity(y: np.ndarray) -> np.ndarray:
    """Debug mechanism: no sanitization at all.  A non-finite entry
    raises ValueError."""
    check_finite(y, "rows")
    return y.copy()


def fit_pca(dataset, m: int) -> np.ndarray:
    """Top-m eigenvectors of the sample covariance of the centered
    (tuples x n) data, in descending eigenvalue order; each component's
    first nonzero entry is made positive."""
    x = as_matrix(dataset)
    if x.shape[0] < 2:
        raise InsufficientData("need at least two tuples to fit components")
    n = x.shape[1]
    if not (1 <= m <= n):
        raise DimensionMismatch(f"need 1 <= m <= {n}, got {m}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    w, vecs = np.linalg.eigh(as_matrix(cov))
    comps = vecs[:, np.argsort(w)[::-1][:m]]
    first = comps[np.argmax(np.abs(comps) > 1e-12, axis=0), np.arange(m)]
    return comps * np.where(first < 0, -1.0, 1.0)


# Per-tuple API: one-row calls into the mechanisms above.

def sanitize_nrp(t: DataTuple, m: int, certificate: NormBoundCertificate | None, rng: Rng,
                 distribution: EntryDistribution = EntryDistribution.UNIT_UNIFORM
                 ) -> SanitizedTuple:
    """Projection by a fresh matrix for this call, rescaled to the
    certificate's Frobenius bound; with ``certificate=None`` the matrix
    is not rescaled (the unbounded ablation, tagged ``nrp-unbounded``).

    ``rng`` must be a fresh child stream per call; reusing one defeats
    the per-instance randomness the mechanism relies on.

    The matrix is replayed from the stream's address: it is
    ``sample_bounded_matrices(1, n, m, distribution, Rng(rng.seed,
    rng.path), betas)[0]``, with ``betas`` None or
    ``[certificate.frobenius_bound]``, and for unit-uniform entries
    ``bounded_projection(n, m, certificate, Rng(rng.seed, rng.path)).matrix``.
    """
    betas = None if certificate is None else np.array([certificate.frobenius_bound])
    # DataTuple has checked t.values; no second finiteness pass.
    values = _nrp(t.values[None], m, rng, distribution, betas, 1)
    return SanitizedTuple(values[0], t.agent_id, "nrp-unbounded" if betas is None else "nrp")


def sanitize_identity(t: DataTuple) -> SanitizedTuple:
    """Debug mechanism: no sanitization at all."""
    return SanitizedTuple(identity(t.values[None])[0], t.agent_id, "identity")

