"""Quantitative evaluation: per-agent utility and privacy, the three
reconstruction metrics (breach count, displacement, resemblance), and the
empirical distance-preservation fraction.

Reconstruction metrics compare an actual point cloud with an aligned
reconstructed cloud.  Resemblance's k-nearest-neighbor sets are exact.
``knn_indices`` finds one cloud's sets and ``knn_overlap`` compares two,
so a caller can find the actual cloud's sets once for several
reconstructions.  Each block of ``KNN_BLOCK`` rows gets its distances
to all N points in one reused buffer, so memory is O(``KNN_BLOCK`` x N)
plus the N x k result, not N x N.  A row's k-th distance is selected
from the k column groups with the smallest minima rather than from all
N columns; rows with exact ties at the k-th distance take the full row.
The distance-preservation fraction counts its pairs over the same row
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import check_gamma
from .errors import EmptyDataset, InsufficientPoints
from .linalg import as_matrix, row_cosines, zero_pad
from .sanitize import DataTuple, SanitizedTuple

KNN_BLOCK = 256    # rows per block of the kNN distance matrix; bounds its memory


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
    zero padding the sanitized rows (ValueError when one is longer);
    utilities are the cosines, clipped to [0, 1] when ``same_quadrant``."""
    cos = row_cosines(actual, zero_pad(sanitized, actual.shape[1]))
    return cos, (np.clip(cos, 0.0, 1.0) if same_quadrant else cos)


def utility(y: DataTuple, t: SanitizedTuple, same_quadrant: bool = False) -> UtilityPrivacyScore:
    """Utility/privacy score of one tuple; see :func:`utility_scores`."""
    cos, u = utility_scores(y.values[None], t.values[None], same_quadrant)
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
    if radius_fraction <= 0:
        raise ValueError("radius_fraction must be positive")
    err = np.linalg.norm(r - a, axis=1)
    return float(np.mean(err <= radius_fraction * np.linalg.norm(a, axis=1)))


def displacement(actual, recon) -> float:
    """Mean Euclidean distance between actual and reconstructed points."""
    a, r = _paired(actual, recon)
    return float(np.mean(np.linalg.norm(r - a, axis=1)))


def _squared_distances(x: np.ndarray, sq: np.ndarray, rows: slice,
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


def _tie_route(d: np.ndarray, k: int) -> np.ndarray:
    """Each row's k smallest of ``d``: the entries below the k-th value,
    then the lowest-index ones tied at it, as (rows x k) column indices."""
    smallest = np.partition(d, k - 1, axis=1)[:, :k]
    kth = smallest[:, -1:]
    need = np.count_nonzero(smallest == kth, axis=1)
    # flatnonzero is row-major: a tie's rank in its row is its offset from the row's first.
    near = d < kth
    tied = np.flatnonzero(d == kth)
    row = tied // d.shape[1]
    near.flat[tied[np.arange(tied.size) - np.searchsorted(row, row) < need[row]]] = True
    return np.nonzero(near)[1].reshape(-1, k)


def _knn_block(x: np.ndarray, sq: np.ndarray, lo: int, k: int,
               buf: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """(block rows x k) indices of each block row's k nearest other rows of
    ``x``: the ones :func:`_tie_route` selects from the clamped row.

    Flattened, a block row of the (``KNN_BLOCK`` x width x groups)
    ``buf`` is the padded distance row, inf from column ``len(x)`` on;
    column j falls in group j % groups.  The k groups with the smallest
    minima hold the k-th distance and every distance below it.  A row
    where a further candidate or another group's minimum reaches the
    k-th distance may have ties outside its k picks, and takes the full
    row.  ``gram`` is a (``KNN_BLOCK`` x ``len(x)``) product buffer."""
    n = x.shape[0]
    rows = slice(lo, min(lo + KNN_BLOCK, n))
    size = rows.stop - lo
    d = buf[:size].reshape(size, -1)
    _squared_distances(x, sq, rows, out=d[:, :n], gram=gram[:size])
    d[np.arange(size), np.arange(lo, rows.stop)] = np.inf
    minima = buf[:size].min(axis=1)
    order = np.argpartition(minima, k, axis=1)
    groups = buf.shape[2]
    cols = (order[:, :k, None] + np.arange(0, d.shape[1], groups)).reshape(size, -1)
    # max(., 0) is monotone, so clamping only the candidates keeps the selection.
    cand = np.maximum(np.take_along_axis(d, cols, axis=1), 0.0)
    pick = np.argpartition(cand, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(cand, pick[:, -1:], axis=1)
    rival = np.maximum(np.take_along_axis(minima, order[:, k:k + 1], axis=1), 0.0)
    tie = (np.count_nonzero(cand <= kth, axis=1) > k) | (rival <= kth)[:, 0]
    idx = np.take_along_axis(cols, pick, axis=1)
    if tie.any():
        idx[tie] = _tie_route(np.maximum(d[tie, :n], 0.0), k)
    return idx


def knn_indices(x, k: int) -> np.ndarray:
    """(N x k) indices of each row's k nearest other rows of the (N x d)
    cloud ``x``, one block of ``KNN_BLOCK`` rows at a time; rows tied at
    the k-th distance keep the lowest indices."""
    x = as_matrix(x)
    n = x.shape[0]
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n <= k:
        raise InsufficientPoints(f"need more than k={k} points, got {n}")
    # Both buffers live for the whole call: a fresh product per block
    # raised peak RSS by ~12 MB at N = 10,000.
    width = _group_width(n, k)
    buf = np.full((min(KNN_BLOCK, n), width, -(-n // width)), np.inf)
    gram = np.empty((min(KNN_BLOCK, n), n))
    sq = np.sum(x * x, axis=1)
    out = np.empty((n, k), dtype=np.intp)
    for lo in range(0, n, KNN_BLOCK):
        out[lo:lo + KNN_BLOCK] = _knn_block(x, sq, lo, k, buf, gram)
    return out


def knn_overlap(actual_knn: np.ndarray, recon_knn: np.ndarray) -> float:
    """Mean fraction of each row's k neighbors in ``actual_knn`` that it
    also has in ``recon_knn``; both are :func:`knn_indices` results."""
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
