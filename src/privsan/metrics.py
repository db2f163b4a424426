"""Quantitative evaluation: per-agent utility and privacy, the three
reconstruction metrics (breach count, displacement, resemblance), and the
empirical distance-preservation fraction.

Reconstruction metrics compare an actual point cloud with an aligned
reconstructed cloud.  Resemblance's k-nearest-neighbor sets are exact.
``knn_indices`` finds one cloud's sets and ``knn_overlap`` compares two,
so a caller can find the actual cloud's sets once for several
reconstructions.

``knn_indices`` screens in float32 and ranks in float64.  Let y be the
cloud scaled by a power of two so that its largest entry lies in
[1/2, 1) (exact), and c the centred cloud, scaled likewise and rounded
to float32.  One sgemm per block of ``KNN_BLOCK`` rows writes
s_ij = |c_j|^2 - 2 c_i.c_j into a reused float32 buffer; the minima of
its column groups bound each row's k-th distance from above.  Rounding
moves s_ij + |c_i|^2 from the exact scaled |y_i - y_j|^2 by at most

    E_i = 2 gamma_{d+4} (r_i + R)^2,   gamma_m = m u / (1 - m u),  u = 2^-24,

where r_i = |c_i| and R is the largest r: gamma_{d+1} bounds the
(d+1)-term product in any summation order, 3u the cast to float32 and
the rounded norm, and the factor 2 the second-order and underflow terms
(R >= 1/2).  The refine's float64 distance (sq_i + sq_j) - 2 y_i.y_j
moves from the exact one by at most F_i = 2 gamma_{d+2} (|y_i| + Y)^2
with u = 2^-53 and Y the largest |y|, taken in c's scale.  If G_i is
row i's k-th smallest group minimum, k columns have s_ij <= G_i, so the
row's k-th refine distance is at most G_i + |c_i|^2 + E_i + F_i, and
every column among its k nearest has s_ij <= G_i + 2 (E_i + F_i): the
row's threshold, rounded up to float32.  The columns under it get
float64 distances from y, clamped at 0 and ranked by (distance, column),
so ties keep the lowest indices.  A row with more than 4k candidates
takes its exact full row instead, ``KNN_BLOCK // 4`` rows at a time: a
far outlier can shrink a tight cluster below float32's resolution.
Each block is screened and ranked, full rows too, before the next one:
memory is O(``KNN_BLOCK`` x N + N d + N k), not N x N.

The distance-preservation fraction counts its pairs over the same row
blocks.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bounds import check_gamma
from .errors import EmptyDataset, InsufficientPoints
from .linalg import as_matrix, check_finite, check_shape, row_cosines, zero_pad
from .sanitize import DataTuple, SanitizedTuple

KNN_BLOCK = 256    # rows per block of the kNN screen; bounds its memory
_FAR = 2.0**100    # screen value of padding columns and of each row's own column


@dataclass(frozen=True)
class UtilityPrivacyScore:
    """Complementary utility/privacy pair for one agent tuple.

    ``utility`` is the cosine similarity between the raw tuple and its
    sanitized counterpart embedded back into the ambient space, clipped
    to [0, 1] when the mechanism guarantees both vectors share a
    quadrant.  ``cosine_raw`` keeps the unclipped value and ``in_range``
    flags whether it already sat inside [0, 1].  ``privacy`` is exactly
    ``1 - utility``.
    """

    utility: float
    privacy: float
    agent_id: str
    cosine_raw: float
    in_range: bool


@dataclass(frozen=True)
class MetricReport:
    breach_count: float
    displacement: float
    resemblance: float
    neighborhood_radius_rule: str
    k_neighbors: int
    repetitions: int


def utility_scores(actual: np.ndarray, sanitized: np.ndarray,
                   same_quadrant: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(cosines, utilities) of each sanitized row against its raw row,
    zero padding the sanitized rows (ValueError when one is longer or
    an entry is not finite, DimensionMismatch when the row counts differ);
    utilities are the cosines, clipped to [0, 1] when ``same_quadrant``."""
    check_shape(actual, (None, None), "actual rows")
    check_shape(sanitized, (len(actual), None), "sanitized rows")
    check_finite(actual, "actual rows")
    check_finite(sanitized, "sanitized rows")
    return _utility_scores(actual, sanitized, same_quadrant)


def _utility_scores(actual: np.ndarray, sanitized: np.ndarray,
                    same_quadrant: bool) -> tuple[np.ndarray, np.ndarray]:
    """:func:`utility_scores` on 2-d arrays of equal row count."""
    cos = row_cosines(actual, zero_pad(sanitized, actual.shape[1]))
    return cos, (cos.clip(0.0, 1.0) if same_quadrant else cos)


def utility(y: DataTuple, t: SanitizedTuple, same_quadrant: bool = False) -> UtilityPrivacyScore:
    """Utility/privacy score of one tuple; see :func:`utility_scores`."""
    # DataTuple and SanitizedTuple hold vectors; no second shape check.
    cos, u = _utility_scores(y.values[None], t.values[None], same_quadrant)
    raw, score = float(cos[0]), float(u[0])
    return UtilityPrivacyScore(
        utility=score,
        privacy=1.0 - score,
        agent_id=y.agent_id,
        cosine_raw=raw,
        in_range=0.0 <= raw <= 1.0,
    )


def _paired(actual, recon) -> tuple[np.ndarray, np.ndarray]:
    if len(actual) == 0:
        raise EmptyDataset("no points")
    if len(actual) != len(recon):
        raise ValueError(f"list lengths differ: {len(actual)} vs {len(recon)}")
    a = as_matrix(actual)
    r = as_matrix(recon)
    if a.shape != r.shape:
        raise ValueError(f"point shapes differ: {a.shape} vs {r.shape}")
    return a, r


def breach_count(actual, recon, radius_fraction: float = 0.2) -> float:
    """Fraction of reconstructions landing inside the neighborhood of
    their original point, whose radius is ``radius_fraction`` times that
    point's norm."""
    a, r = _paired(actual, recon)
    if not (radius_fraction > 0):
        raise ValueError("radius_fraction must be positive")
    err = np.linalg.norm(r - a, axis=1)
    return float(np.mean(err <= radius_fraction * np.linalg.norm(a, axis=1)))


def displacement(actual, recon) -> float:
    """Mean Euclidean distance between actual and reconstructed points."""
    a, r = _paired(actual, recon)
    return float(np.mean(np.linalg.norm(r - a, axis=1)))


def _squared_distances(x: np.ndarray, sq: np.ndarray, rows: slice | np.ndarray,
                       out: np.ndarray | None = None,
                       gram: np.ndarray | None = None) -> np.ndarray:
    """Unclamped squared distances from rows ``rows`` of ``x`` to every row,
    (sq_i + sq_j) - 2 x_i.x_j, where ``sq`` holds the squared row norms.
    ``out`` and ``gram`` may supply the result and the product's buffer."""
    g = np.matmul(x[rows] * -2.0, x.T, out=gram)    # scaling by a power of two is exact
    d = np.add(sq[rows, None], sq[None, :], out=out)
    d += g
    return d


def _group_width(n: int, k: int) -> int:
    """Columns per candidate group: about sqrt(n / 4k), so the group
    minima (n / width) and the candidates (k * width) stay few, and at
    most n // (k + 1), which leaves at least k + 1 groups."""
    return max(1, min(math.isqrt(n // (4 * k)), n // (k + 1)))


def _gamma(m: int, u: float) -> float:
    """m u / (1 - m u): the relative error bound of an m-term dot product,
    in any summation order, in a format of unit roundoff u."""
    return m * u / (1 - m * u) if m * u < 1 else math.inf


def _exponent(a: np.ndarray) -> int:
    """e with the largest |entry| of ``a`` in [2**(e-1), 2**e); 0 for zero ``a``."""
    return int(np.frexp(max(a.max(), -a.min()))[1])


def _smallest(d: np.ndarray, k: int) -> np.ndarray:
    """(rows x k) positions of each row's k smallest entries of ``d``: the
    entries below the k-th value, then the lowest positions tied at it."""
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    keep = d <= kth
    tied = np.count_nonzero(keep, axis=1) > k
    if tied.any():
        below = d[tied] < kth[tied]
        need = k - np.count_nonzero(below, axis=1)
        at = keep[tied] & ~below
        keep[tied] = below | (at & (np.cumsum(at, axis=1) <= need[:, None]))
    return (np.flatnonzero(keep) % d.shape[1]).reshape(-1, k)


def _screen(y: np.ndarray, sq: np.ndarray, k: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The float32 screen of the cloud ``y`` with squared row norms ``sq``.
    Per ``KNN_BLOCK``-row block it yields the screened rows; their
    candidate columns in column order, padded with the row's own column
    to one array; the rows with more than ``4 k`` candidate groups or
    candidates, which take their full row instead; and the block buffer,
    ``KNN_BLOCK // 2`` x N float64s or more, free until the next block.

    Column j of a screened row falls in group j % groups of the
    (``KNN_BLOCK`` x width x groups) buffer; the pads past N read _FAR."""
    n, dim = y.shape
    width = _group_width(n, k)
    groups = -(-n // width)
    cap = 4 * k
    c = y - np.mean(y, axis=0)
    es = _exponent(c)
    lhs = np.empty((n, dim + 1), dtype=np.float32)    # rows [c_i, 1]
    lhs[:, :dim] = np.ldexp(c, -es, out=c)
    lhs[:, dim] = 1.0
    del c
    a = lhs[:, :dim]
    na = np.einsum("ij,ij->i", a, a, dtype=np.float64)
    rhs = np.empty((width * groups, dim + 1), dtype=np.float32)    # rows [-2 c_j, |c_j|^2]
    np.multiply(a, np.float32(-2.0), out=rhs[:n, :dim])
    rhs[:n, dim] = na
    rhs[n:, :dim] = 0.0
    rhs[n:, dim] = _FAR
    rn, yn = np.sqrt(na), np.sqrt(sq)
    # 2 (E_i + F_i) in c's scale (module docstring); an overflow to inf lets every column through.
    with np.errstate(over="ignore"):
        margin = (4 * _gamma(dim + 4, 2.0**-24) * (rn + rn.max()) ** 2
                  + np.ldexp(4 * _gamma(dim + 2, 2.0**-53) * (yn + yn.max()) ** 2, -2 * es))
    entries = min(KNN_BLOCK, n) * width * groups
    scratch = np.empty(max(-(-entries // 2), KNN_BLOCK // 2 * n))
    buf = scratch.view(np.float32)[:entries].reshape(-1, width, groups)
    for lo in range(0, n, KNN_BLOCK):
        size = min(KNN_BLOCK, n - lo)
        block = np.arange(size)
        s = np.matmul(lhs[lo:lo + size], rhs.T, out=buf[:size].reshape(size, -1))
        s[block, lo + block] = _FAR
        minima = buf[:size].min(axis=1)
        kth = np.partition(minima, k - 1, axis=1)[:, k - 1]
        t = np.minimum(kth + margin[lo:lo + size], _FAR / 2).astype(np.float32)
        t = np.nextafter(t, np.float32(np.inf))    # at or above the float64 threshold
        hit = minima <= t[:, None]
        count = np.count_nonzero(hit, axis=1)
        many = count > cap
        count[many] = 0
        hit[many] = False
        slots = np.arange(count.max()) < count[:, None]
        picked = np.zeros(slots.shape, dtype=np.intp)
        picked[slots] = np.flatnonzero(hit) % groups
        under = (buf[block[:, None], :, picked] <= t[:, None, None]) & slots[:, :, None]
        # Read as (rows x width x picked groups), candidates come out in column order.
        r, rest = np.divmod(np.flatnonzero(under.transpose(0, 2, 1)), under[0].size)
        w, i = np.divmod(rest, slots.shape[1])
        count = np.bincount(r, minlength=size)
        many |= count > cap
        rows = np.flatnonzero(~many)
        count = count[rows]
        slots = np.arange(count.max(initial=0)) < count[:, None]
        cand = np.repeat(lo + rows[:, None], slots.shape[1], axis=1)
        cand[slots] = (w * groups + picked[r, i])[~many[r]]
        yield lo + rows, cand, lo + np.flatnonzero(many), scratch


def knn_indices(x, k: int) -> np.ndarray:
    """(N x k) indices of each row's k nearest other rows of the (N x d)
    cloud ``x``; rows tied at the k-th distance keep the lowest indices.

    One pass over the row blocks of :func:`_screen`; see the module docstring."""
    x = as_matrix(x)
    n, dim = x.shape
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n <= k:
        raise InsufficientPoints(f"need more than k={k} points, got {n}")
    out = np.empty((n, k), dtype=np.intp)
    y = np.ldexp(x, -_exponent(x))
    sq = np.sum(np.square(y), axis=1)
    gathered = np.empty(max(2**15, 4 * k * dim))    # reused; holds one row of 4k candidates
    for rows, cand, full, scratch in _screen(y, sq, k):
        if rows.size:
            ranked = np.empty(cand.shape)
            step = max(1, gathered.size // cand[0].size // dim)
            for lo in range(0, rows.size, step):
                i, j = rows[lo:lo + step], cand[lo:lo + step]
                # mode="raise" would gather into a temporary and copy it to out.
                yj = np.take(y, j, axis=0, out=gathered[:j.size * dim].reshape(*j.shape, dim),
                             mode="clip")
                ranked[lo:lo + step] = ((sq[i, None] + sq[j])
                                        + np.einsum("rcd,rd->rc", yj, y[i]) * -2.0)
            ranked[cand == rows[:, None]] = np.inf    # the pads
            np.maximum(ranked, 0.0, out=ranked)
            out[rows] = np.take_along_axis(cand, _smallest(ranked, k), axis=1)
        dist, gram = scratch[:KNN_BLOCK // 2 * n].reshape(2, KNN_BLOCK // 4, n)
        for lo in range(0, full.size, KNN_BLOCK // 4):
            i = full[lo:lo + KNN_BLOCK // 4]
            d = _squared_distances(y, sq, i, out=dist[:i.size], gram=gram[:i.size])
            np.maximum(d, 0.0, out=d)
            d[np.arange(i.size), i] = np.inf
            out[i] = _smallest(d, k)
    return out


def knn_overlap(actual_knn: np.ndarray, recon_knn: np.ndarray) -> float:
    """Mean fraction of each row's k neighbors in ``actual_knn`` that it
    also has in ``recon_knn``; both are :func:`knn_indices` results.
    Arrays that are not 2-d or differ in shape raise DimensionMismatch,
    and arrays with no entries raise EmptyDataset."""
    check_shape(actual_knn, (None, None), "actual kNN indices")
    check_shape(recon_knn, np.shape(actual_knn), "reconstructed kNN indices")
    if np.size(actual_knn) == 0:
        raise EmptyDataset("no kNN indices")
    shared = np.empty(len(actual_knn), dtype=np.intp)
    for lo in range(0, len(actual_knn), KNN_BLOCK):
        rows = slice(lo, lo + KNN_BLOCK)
        shared[rows] = np.count_nonzero(actual_knn[rows, :, None] == recon_knn[rows, None, :],
                                        axis=(1, 2))
    return float(np.mean(shared / actual_knn.shape[1]))


def resemblance(actual, recon, k: int = 10) -> float:
    """Mean fractional overlap between each point's k-nearest-neighbor
    index set in the actual cloud and in the reconstructed cloud."""
    a, r = _paired(actual, recon)
    return knn_overlap(knn_indices(a, k), knn_indices(r, k))


def distance_preservation_fraction(points, projected, gamma: float) -> float:
    """Fraction of unordered pairs whose projected squared distance stays
    within multiplicative factors e^{+-gamma} of the original.  Counts the
    pairs j > i over blocks of ``KNN_BLOCK`` rows."""
    check_gamma(gamma)
    if len(points) < 2:
        raise EmptyDataset("need at least two points")
    if len(points) != len(projected):
        raise ValueError("point lists differ in size")
    p = as_matrix(points)
    q = as_matrix(projected)
    n = p.shape[0]
    sq_p, sq_q = np.sum(p * p, axis=1), np.sum(q * q, axis=1)
    inside = 0
    for lo in range(0, n, KNN_BLOCK):
        rows = slice(lo, lo + KNN_BLOCK)
        dp = np.maximum(_squared_distances(p, sq_p, rows), 0.0)
        dq = np.maximum(_squared_distances(q, sq_q, rows), 0.0)
        kept = (dq >= np.exp(-gamma) * dp) & (dq <= np.exp(gamma) * dp)
        inside += np.count_nonzero(np.triu(kept, lo + 1))
    return inside / (n * (n - 1) // 2)
