"""Quantitative evaluation: per-agent utility and privacy, the three
reconstruction metrics (breach count, displacement, resemblance), and the
empirical distance-preservation fraction.

Reconstruction metrics compare an actual point cloud with an aligned
reconstructed cloud.  Resemblance's k-nearest-neighbor sets are exact.
``knn_indices`` finds one cloud's sets and ``knn_overlap`` compares two,
so a caller can find the actual cloud's sets once for several
reconstructions.

``knn_indices`` has two routes to the same sets, and both rank their
candidates by one float64 distance.  Let y be the
cloud scaled by a power of two so that its largest entry lies in
[1/2, 1) (exact), and c the centred cloud, scaled likewise and rounded
to float32.  The candidates of a row get float64 distances
(sq_i + sq_j) - 2 y_i.y_j from y, clamped at 0 and ranked by
(distance, column), so ties keep the lowest indices.  That distance
moves from the exact one by at most F_i = 2 gamma_{d+2} (|y_i| + Y)^2
with u = 2^-53 and Y the largest |y|, taken in c's scale.

The screen.  One sgemm per block of ``KNN_BLOCK`` rows writes
s_ij = |c_j|^2 - 2 c_i.c_j into a reused float32 buffer; the minima of
its column groups bound each row's k-th distance from above.  Rounding
moves s_ij + |c_i|^2 from the exact scaled |y_i - y_j|^2 by at most

    E_i = 2 gamma_{d+4} (r_i + R)^2,   gamma_m = m u / (1 - m u),  u = 2^-24,

where r_i = |c_i| and R is the largest r: gamma_{d+1} bounds the
(d+1)-term product in any summation order, 3u the cast to float32 and
the rounded norm, and the factor 2 the second-order and underflow terms
(R >= 1/2).  If G_i is row i's k-th smallest group minimum, k columns
have s_ij <= G_i, so the row's k-th refine distance is at most
G_i + |c_i|^2 + E_i + F_i, and every column among its k nearest has
s_ij <= G_i + 2 (E_i + F_i): the row's threshold, rounded up to float32.
The columns under it are its candidates.  A row with more than 4k
candidates takes its exact full row instead, ``KNN_BLOCK // 4`` rows at
a time: a far outlier can shrink a tight cluster below float32's
resolution.  Each block is screened and ranked, full rows too, before
the next one, in one buffer that ``knn_indices`` owns.

The pivot route, for clouds of tight clusters such as a round's agents.
Every 4k-th row is a pivot.  One sgemm per block of ``KNN_BLOCK`` rows
against the pivots' rows of the screen's float32 copy gives s_ip, and
each row joins the cluster of the pivot with the least one; a pivot
joins its own.  In c's scale, with M_i = 2 (E_i + F_i), the exact
distance from row i to pivot p lies in

    [sqrt(max(s_ip + |c_i|^2 - M_i, 0)), sqrt(s_ip + |c_i|^2 + M_i)].

Cluster a's radius r_a is the largest upper bound of its rows (0 for the
pivot), and m_a their largest M_i.  With pivot a as row i, take near_ac
and far_ac as the lower and upper bounds of its distance from pivot c
(both 0 for c = a), and W_a as the least far_ac + r_c such that the
clusters c with far_ac + r_c <= W_a hold at least k + 1 rows.  By the
triangle inequality through pivot a, every row of a has at least k
other rows within U_a = r_a + W_a, so its k-th refine distance is at
most U_a^2 + F_i, and each column among its k nearest is within
V_a = sqrt(U_a^2 + 2 m_a) of it.  A row of cluster c is at least
near_ac - r_a - r_c from each row of a, so c survives when
near_ac <= V_a + r_a + r_c; the clusters that make up W_a survive.
Every column left out is further than V_a, so its distance, however
it is rounded, lies above U_a^2 + 3 F_i: more than 2 F_i above the k-th
refine distance, which is at most U_a^2 + F_i.

a's rows are ranked against the surviving clusters' rows by the refine
distance, its products taken by BLAS.  Two evaluations of one distance,
each within F_i of the exact one, differ by at most 2 F_i.  So if a
row's (k+1)-th distance among the survivors exceeds its k-th by more
than 4 F_i, every evaluation, the screen's and the full rows' included,
puts the same k columns below all the others, and the row keeps them
(the gap and 4 F_i are themselves rounded by a few ulps, which the
factor 2 in F_i covers).
A row whose set rounding could decide, such as one tied at its k-th
distance or in a cluster below float64's resolution, goes to the screen
and takes the route it would take without the pivots.  Each bound takes
M_i, or 2 m_a, where the argument needs at most E_i, 2 F_i or, for V_a,
4 F_i, and so carries a surplus of at least E_i >= 2^-21 R^2 in squared
distance: far more than the few float64 roundings of the bound, each a
relative 2^-53 of a number below 64 (R^2 + M_i), can take from it.

A cluster whose surviving clusters hold more than N // 16 rows goes to
the screen, decided before any of its rows is ranked; so does every row
of a cloud with N // 16 < 4k, whose clusters average more rows than
that.  The screen then takes only those rows, and a cloud without
clusters pays one N x N/4k sgemm and an (N/4k)^2 pass for the pivots.
``knn_peak_bytes`` counts both routes' memory, O(``KNN_BLOCK`` x N +
N d + N k), not N x N; no other module does.

The distance-preservation fraction counts its pairs over the same row
blocks, and ``preservation_peak_bytes`` counts their memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import check_gamma
from .errors import EmptyDataset, InsufficientPoints
from .linalg import as_matrix, check_finite, check_shape, row_cosines, zero_pad
from .sanitize import DataTuple, SanitizedTuple

KNN_BLOCK = 256    # rows per block of the kNN routes; bounds their memory
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
    kth = np.partition(d, k - 1, axis=1)[:, [k - 1]]    # a copy: the partition is freed
    keep = d <= kth
    count = np.count_nonzero(keep, axis=1)
    tied = np.flatnonzero(count > k)
    step = max(1, 2**15 // d.shape[1])    # tied rows at a time, in bounded memory
    for lo in range(0, tied.size, step):
        t = tied[lo:lo + step]
        at = d[t] == kth[t]
        rank = np.cumsum(at, axis=1)    # drop the count - k highest positions tied
        keep[t] &= ~at | (rank <= (rank[:, -1] - count[t] + k)[:, None])
    return (np.flatnonzero(keep) % d.shape[1]).reshape(-1, k)


def _float32_cloud(y: np.ndarray, sq: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """The float32 copies that both routes read, of the cloud ``y`` with
    squared row norms ``sq``: ``lhs`` rows [c_i, 1]; ``rhs`` rows
    [-2 c_j, |c_j|^2], padded with rows [0, _FAR] to the screen's
    width x groups; the float64 |c_i|^2; and each row's margin
    2 (E_i + F_i) in c's scale (module docstring)."""
    n, dim = y.shape
    width = _group_width(n, k)
    c = y - np.mean(y, axis=0)
    es = _exponent(c)
    lhs = np.empty((n, dim + 1), dtype=np.float32)
    lhs[:, :dim] = np.ldexp(c, -es, out=c)
    lhs[:, dim] = 1.0
    del c
    a = lhs[:, :dim]
    na = np.einsum("ij,ij->i", a, a, dtype=np.float64)
    rhs = np.empty((width * -(-n // width), dim + 1), dtype=np.float32)
    np.multiply(a, np.float32(-2.0), out=rhs[:n, :dim])
    rhs[:n, dim] = na
    rhs[n:, :dim] = 0.0
    rhs[n:, dim] = _FAR
    rn, yn = np.sqrt(na), np.sqrt(sq)
    # An overflow to inf lets every column through.
    with np.errstate(over="ignore"):
        margin = (4 * _gamma(dim + 4, 2.0**-24) * (rn + rn.max()) ** 2
                  + np.ldexp(4 * _gamma(dim + 2, 2.0**-53) * (yn + yn.max()) ** 2, -2 * es))
    return lhs, rhs, na, margin


def _rank(y: np.ndarray, sq: np.ndarray, cols: np.ndarray, mine: np.ndarray, k: int,
          top: float) -> tuple[np.ndarray, np.ndarray]:
    """(clear rows x k) columns of the ascending ``cols`` nearest to each
    of its rows at positions ``mine`` whose set rounding cannot decide,
    by the float64 distance of the screen route, and the mask of those
    clear rows (module docstring); ``top`` is the largest row norm."""
    rows = cols[mine]
    ranked = np.matmul(y[rows] * -2.0, y[cols].T)
    ranked += sq[rows, None] + sq[cols]
    ranked[np.arange(mine.size), mine] = np.inf
    np.maximum(ranked, 0.0, out=ranked)
    part = np.partition(ranked, (k - 1, k), axis=1)
    # 4 F_i in y's scale: twice what two evaluations of a distance may differ by
    apart = 8 * _gamma(y.shape[1] + 2, 2.0**-53) * (np.sqrt(sq[rows]) + top) ** 2
    clear = part[:, k] - part[:, k - 1] > apart
    keep = ranked <= part[:, k - 1:k]
    keep[~clear] = False    # a clear row keeps exactly k columns
    return cols[np.flatnonzero(keep) % cols.size].reshape(-1, k), clear


def _pivot_route(y: np.ndarray, sq: np.ndarray, k: int, copies: tuple[np.ndarray, ...],
                 out: np.ndarray) -> np.ndarray:
    """Rank into ``out`` the rows of every pivot cluster whose surviving
    clusters hold at most ``n // 16`` rows, unless rounding could decide
    a row's set, and return the other rows, in order, for the screen
    (module docstring)."""
    lhs, rhs, na, margin = copies
    n = len(y)
    cap = n // 16
    if cap < 4 * k:    # the clusters average 4k rows, more than the cap
        return np.arange(n)
    pivots = np.arange(0, n, 4 * k)
    count = pivots.size
    towards = rhs[pivots].T    # columns [-2 c_p, |c_p|^2]
    # Each row's nearest pivot, and a bound above its distance from it.
    owner = np.empty(n, dtype=np.intp)
    reach = np.empty(n)
    for lo in range(0, n, KNN_BLOCK):
        s = np.matmul(lhs[lo:lo + KNN_BLOCK], towards)
        owner[lo:lo + KNN_BLOCK] = nearest = s.argmin(axis=1)
        reach[lo:lo + KNN_BLOCK] = s[np.arange(s.shape[0]), nearest]
    reach += na
    reach += margin
    np.sqrt(np.maximum(reach, 0.0, out=reach), out=reach)
    owner[pivots] = np.arange(count)
    reach[pivots] = 0.0
    size = np.bincount(owner, minlength=count)
    radius, slack = np.zeros(count), np.zeros(count)
    np.maximum.at(radius, owner, reach)
    np.maximum.at(slack, owner, margin)
    del reach
    dense = np.zeros(count, dtype=bool)
    unclear, top = [], math.sqrt(sq.max())
    first = min(k, count - 1)
    for lo in range(0, count, KNN_BLOCK // 4):
        block = np.arange(lo, min(lo + KNN_BLOCK // 4, count))
        at = np.arange(block.size)
        with np.errstate(over="ignore"):    # a margin may overflow; inf keeps every cluster
            d = np.matmul(lhs[pivots[block]], towards).astype(np.float64)
            d += na[pivots[block], None]
            m = margin[pivots[block], None]
            far = np.sqrt(np.maximum(d + m, 0.0))
            near = np.sqrt(np.maximum(d - m, 0.0))
            far[at, block] = near[at, block] = 0.0
            far += radius
            # The k + 1 clusters nearest by far hold at least k + 1 rows.
            nearby = np.argpartition(far, first, axis=1)[:, :first + 1]
            nearby = np.take_along_axis(nearby, np.argsort(far[at[:, None], nearby], axis=1),
                                        axis=1)
            last = nearby[at, np.argmax(np.cumsum(size[nearby], axis=1) > k, axis=1)]
            bound = np.sqrt((radius[block] + far[at, last]) ** 2 + 2 * slack[block])
            keep = near <= (bound + radius[block])[:, None] + radius
        dense[block] = keep @ size > cap
        for i in np.flatnonzero(~dense[block]):
            cols = np.flatnonzero(keep[i][owner])    # the surviving clusters' rows
            mine = np.flatnonzero(owner[cols] == block[i])
            for r in range(0, mine.size, KNN_BLOCK):
                part = mine[r:r + KNN_BLOCK]
                found, clear = _rank(y, sq, cols, part, k, top)
                out[cols[part[clear]]] = found
                if not clear.all():
                    unclear.append(cols[part[~clear]])
    return np.sort(np.concatenate([np.flatnonzero(dense[owner]), *unclear]))


def _screen(sub: np.ndarray, k: int, copies: tuple[np.ndarray, ...],
            buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float32 screen of the rows ``sub``, at most ``KNN_BLOCK``, of
    the cloud whose :func:`_float32_cloud` copies are ``copies``: the
    screened rows; their candidate columns in column order, padded with
    the row's own column to one array; and the rows with more than
    ``4 k`` candidate groups or candidates, which take their full row.
    Column j of a row falls in group j % groups of the (rows x width x
    groups) float32 products it writes into ``buf``; pads read _FAR."""
    lhs, rhs, _, margin = copies
    width = _group_width(len(lhs), k)
    groups = len(rhs) // width
    size = sub.size
    block = np.arange(size)
    grid = buf.view(np.float32)[:size * len(rhs)].reshape(size, width, groups)
    s = np.matmul(lhs[sub], rhs.T, out=grid.reshape(size, -1))
    s[block, sub] = _FAR
    minima = grid.min(axis=1)
    kth = np.partition(minima, k - 1, axis=1)[:, k - 1]
    t = np.minimum(kth + margin[sub], _FAR / 2).astype(np.float32)
    t = np.nextafter(t, np.float32(np.inf))    # at or above the float64 threshold
    hit = minima <= t[:, None]
    count = np.count_nonzero(hit, axis=1)
    many = count > 4 * k
    count[many] = 0
    hit[many] = False
    slots = np.arange(count.max()) < count[:, None]
    picked = np.zeros(slots.shape, dtype=np.intp)
    picked[slots] = np.flatnonzero(hit) % groups
    under = (grid[block[:, None], :, picked] <= t[:, None, None]) & slots[:, :, None]
    # Read as (rows x width x picked groups), candidates come out in column order.
    r, rest = np.divmod(np.flatnonzero(under.transpose(0, 2, 1)), under[0].size)
    w, i = np.divmod(rest, slots.shape[1])
    count = np.bincount(r, minlength=size)
    many |= count > 4 * k
    rows = sub[~many]
    count = count[~many]
    slots = np.arange(count.max(initial=0)) < count[:, None]
    cand = np.repeat(rows[:, None], slots.shape[1], axis=1)
    cand[slots] = (w * groups + picked[r, i])[~many[r]]
    return rows, cand, sub[many]


def knn_peak_bytes(n: int, dim: int, k: int) -> int:
    """Upper estimate of the bytes :func:`knn_indices` holds at once on an
    (n x dim) cloud: two float64 copies of the cloud; ``KNN_BLOCK`` x n
    float64s: the block buffer, half of them (a block's screen products
    or a full-row batch's distances and product), and a full-row batch's
    partition, mask and tie temporaries, a quarter at most, or else the
    pivot route's fewer arrays (a row block's float32 distances to the
    pivots, ``KNN_BLOCK // 4`` pivots' bounds, a cluster's ranks and
    their partition); the route's three per-row arrays (each row's
    pivot, its reach and the rows it leaves to the screen); and the
    (n x k) result."""
    return 8 * (2 * n * dim + KNN_BLOCK * n + 3 * n + n * k)


def knn_indices(x, k: int) -> np.ndarray:
    """(N x k) indices of each row's k nearest other rows of the (N x d)
    cloud ``x``; rows tied at the k-th distance keep the lowest indices.

    The pivot route, then one pass of :func:`_screen` over the row
    blocks of the rows it leaves; see the module docstring."""
    x = as_matrix(x)
    n, dim = x.shape
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n <= k:
        raise InsufficientPoints(f"need more than k={k} points, got {n}")
    out = np.empty((n, k), dtype=np.intp)
    y = np.ldexp(x, -_exponent(x))
    sq = np.sum(np.square(y), axis=1)
    copies = _float32_cloud(y, sq, k)
    dense = _pivot_route(y, sq, k, copies, out)
    if not dense.size:
        return out    # no row reaches the screen, so no block buffer
    entries = min(KNN_BLOCK, n) * len(copies[1])
    scratch = np.empty(max(-(-entries // 2), KNN_BLOCK // 2 * n))
    dist, gram = scratch[:KNN_BLOCK // 2 * n].reshape(2, KNN_BLOCK // 4, n)
    gathered = np.empty(max(2**15, 4 * k * dim))    # reused; holds one row of 4k candidates
    for start in range(0, dense.size, KNN_BLOCK):
        rows, cand, full = _screen(dense[start:start + KNN_BLOCK], k, copies, scratch)
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


def preservation_peak_bytes(point_count: int) -> int:
    """Bytes :func:`distance_preservation_fraction` holds beyond its inputs,
    at most: four float64 ``KNN_BLOCK``-row blocks of distances."""
    return 32 * KNN_BLOCK * point_count


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
