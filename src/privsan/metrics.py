"""Quantitative evaluation: per-agent utility and privacy, the three
reconstruction metrics (breach count, displacement, resemblance), and the
empirical distance-preservation fraction.

Reconstruction metrics compare an actual point cloud with an aligned
reconstructed cloud.  Nearest-neighbor computations are exact brute
force; datasets at benchmark scale stay small enough that correctness is
worth more than an approximate index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import check_gamma
from .errors import EmptyDataset, InsufficientPoints
from .linalg import as_matrix, row_cosines, zero_pad
from .sanitize import DataTuple, SanitizedTuple


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


def breach_count(actual, recon, radius_fraction: float = 0.2,
                 absolute_radius: float | None = None) -> float:
    """Fraction of reconstructions landing inside the neighborhood of
    their original point.

    The default neighborhood radius is ``radius_fraction`` times each
    actual point's norm; passing ``absolute_radius`` switches to one
    fixed radius for every point.
    """
    a, r = _paired(actual, recon)
    if absolute_radius is None and radius_fraction <= 0:
        raise ValueError("radius_fraction must be positive")
    err = np.linalg.norm(r - a, axis=1)
    if absolute_radius is not None:
        radii = np.full(a.shape[0], float(absolute_radius))
    else:
        radii = radius_fraction * np.linalg.norm(a, axis=1)
    return float(np.mean(err <= radii))


def displacement(actual, recon) -> float:
    """Mean Euclidean distance between actual and reconstructed points."""
    a, r = _paired(actual, recon)
    return float(np.mean(np.linalg.norm(r - a, axis=1)))


def _squared_distances(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d, 0.0, out=d)
    return d


def _knn_indices(x: np.ndarray, k: int) -> np.ndarray:
    """k nearest neighbors of each row among the other rows, ties broken
    by lower index.  Returns an (n, k) index array."""
    n = x.shape[0]
    d = _squared_distances(x)
    np.fill_diagonal(d, np.inf)
    cut = min(n - 1, k + 8)
    # Candidates sorted by index, then a stable distance sort, so equal
    # distances resolve to the lower index.
    cand = np.sort(np.argpartition(d, cut - 1, axis=1)[:, :cut], axis=1)
    dcand = np.take_along_axis(d, cand, axis=1)
    order = np.argsort(dcand, axis=1, kind="stable")
    nearest = np.take_along_axis(cand, order[:, :k], axis=1)
    if cut < n - 1:
        # A tie straddling the preselection boundary needs the full row.
        kth = np.take_along_axis(dcand, order[:, k - 1:k], axis=1)[:, 0]
        last = np.take_along_axis(dcand, order[:, -1:], axis=1)[:, 0]
        for i in np.nonzero(kth >= last)[0]:
            full = np.argsort(d[i], kind="stable")
            nearest[i] = full[:k]
    return nearest


def resemblance(actual, recon, k: int = 10) -> float:
    """Mean fractional overlap between each point's k-nearest-neighbor
    index set in the actual cloud and in the reconstructed cloud."""
    a, r = _paired(actual, recon)
    if a.shape[0] <= k:
        raise InsufficientPoints(f"need more than k={k} points, got {a.shape[0]}")
    sa = _knn_indices(a, k)
    sr = _knn_indices(r, k)
    # Each row of sa and of sr holds k distinct indices, so the count of
    # equal pairs is the size of the intersection.
    return float(np.mean((sa[:, :, None] == sr[:, None, :]).sum(axis=(1, 2)) / k))


def distance_preservation_fraction(points, projected, gamma: float) -> float:
    """Fraction of unordered pairs whose projected squared distance stays
    within multiplicative factors e^{+-gamma} of the original."""
    check_gamma(gamma)
    if len(points) < 2:
        raise EmptyDataset("need at least two points")
    if len(points) != len(projected):
        raise ValueError("point lists differ in size")
    p = as_matrix(points)
    q = as_matrix(projected)
    iu = np.triu_indices(p.shape[0], k=1)
    dp = _squared_distances(p)[iu]
    dq = _squared_distances(q)[iu]
    lo = np.exp(-gamma) * dp
    hi = np.exp(gamma) * dp
    return float(np.mean((dq >= lo) & (dq <= hi)))
